package grader

import (
	"fmt"
	"sort"
	"strings"

	"vlsicad/internal/obs"
)

// Batch aggregates many graded Reports the way the course staff read
// their auto-grader: per-unit pass rates (which regression units
// actually discriminate) and the distribution of earned points — the
// operational view of grading "like a large regression suite for a
// commercial EDA tool".
type Batch struct {
	Project string

	reports   int
	unitOrder []string
	units     map[string]*unitAgg
	// scoreDeciles[i] counts submissions with score in [i*10%,
	// (i+1)*10%); a perfect score lands in the last bucket.
	scoreDeciles  [10]int
	totalEarned   int
	totalPossible int
}

type unitAgg struct {
	graded      int
	passed      int
	earnedSum   int
	possibleSum int
}

// NewBatch returns an empty aggregator for one project's submissions.
func NewBatch(project string) *Batch {
	return &Batch{Project: project, units: map[string]*unitAgg{}}
}

// Add folds one graded report into the batch.
func (b *Batch) Add(r *Report) {
	b.reports++
	for _, u := range r.Units {
		agg := b.units[u.Name]
		if agg == nil {
			agg = &unitAgg{}
			b.units[u.Name] = agg
			b.unitOrder = append(b.unitOrder, u.Name)
		}
		agg.graded++
		if u.Earned >= u.Points {
			agg.passed++
		}
		agg.earnedSum += u.Earned
		agg.possibleSum += u.Points
	}
	b.totalEarned += r.Earned()
	b.totalPossible += r.Total()
	d := int(r.Score() * 10)
	if d > 9 {
		d = 9
	}
	b.scoreDeciles[d]++
}

// PassRate returns the fraction of submissions that earned full
// points on the named unit (0 when the unit was never graded).
func (b *Batch) PassRate(unit string) float64 {
	agg := b.units[unit]
	if agg == nil || agg.graded == 0 {
		return 0
	}
	return float64(agg.passed) / float64(agg.graded)
}

// MeanScore returns total earned / total possible across the batch.
func (b *Batch) MeanScore() float64 {
	if b.totalPossible == 0 {
		return 0
	}
	return float64(b.totalEarned) / float64(b.totalPossible)
}

// Record publishes the batch into an observer: per-unit pass/fail
// counters, an earned-fraction histogram, and headline counters.
func (b *Batch) Record(ob *obs.Observer) {
	ob.Counter("grader_reports_total").Add(int64(b.reports))
	ob.Counter("grader_points_earned").Add(int64(b.totalEarned))
	ob.Counter("grader_points_possible").Add(int64(b.totalPossible))
	h := ob.Histogram("grader_score", 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1)
	for d, n := range b.scoreDeciles {
		mid := (float64(d) + 0.5) / 10
		for i := 0; i < n; i++ {
			h.Observe(mid)
		}
	}
	for name, agg := range b.units {
		ob.Counter("grader_unit_pass:" + name).Add(int64(agg.passed))
		ob.Counter("grader_unit_fail:" + name).Add(int64(agg.graded - agg.passed))
	}
}

// String renders the batch summary page: one row per unit with pass
// rate and earned/possible points, then the score distribution.
func (b *Batch) String() string {
	var w strings.Builder
	fmt.Fprintf(&w, "=== %s: batch of %d submissions, mean score %.0f%% ===\n",
		b.Project, b.reports, 100*b.MeanScore())
	order := append([]string(nil), b.unitOrder...)
	sort.Strings(order)
	for _, name := range order {
		agg := b.units[name]
		fmt.Fprintf(&w, "  %-32s pass %3.0f%%  (%d/%d)  points %d/%d\n",
			name, 100*b.PassRate(name), agg.passed, agg.graded,
			agg.earnedSum, agg.possibleSum)
	}
	fmt.Fprintf(&w, "  score distribution (deciles 0-100%%):")
	for _, n := range b.scoreDeciles {
		fmt.Fprintf(&w, " %d", n)
	}
	fmt.Fprintln(&w)
	return w.String()
}
