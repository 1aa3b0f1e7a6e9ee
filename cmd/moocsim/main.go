// Command moocsim regenerates the paper's figures as text tables:
// the concept map (Figure 1), the lecture catalog (Figure 2), the
// engagement funnel (Figure 8), per-lecture viewership (Figure 9),
// demographics (Figure 10) and the survey word cloud (Figure 11) —
// plus a grading-telemetry report (-fig telemetry) aggregating
// machine grading across a cohort sample, a portal-resilience
// report (-fig portal) driving the job pool through a seeded
// fault storm, with the obs metrics snapshot the live course staff
// would watch, a fairness drill (-fig fairness) where one hot
// user floods the async ticket API against nine normal users while
// quotas, the round-robin fair queue, and per-job deadlines keep the
// portal honest, and a recovery drill (-fig recovery) that kills the
// write-ahead ticket journal mid-record at a seed-derived byte budget,
// restarts the pool from the surviving prefix, and checks the
// conservation ledger across the crash (-journal writes the second
// life's journal to a file).
//
// With -metrics-addr the whole run is scrapeable live: an HTTP
// exporter serves Prometheus /metrics, the JSON /snapshot, /healthz,
// /readyz (wired to the drill pool's breaker state) and /debug/spans
// while the figures run; -hold keeps the process (and exporter) alive
// afterwards so an external scraper can collect the final state —
// the mode the nightly CI scrape drill exercises.
//
// Usage:
//
//	moocsim [-fig all|1|2|8|9|10|11|telemetry|portal|fairness|recovery]
//	        [-seed N] [-journal file]
//	        [-metrics-addr host:port] [-hold duration]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vlsicad/internal/fault"
	"vlsicad/internal/mooc"
	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("moocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to print: all, 1, 2, 8, 9, 10, 11, telemetry, portal, fairness, recovery")
	seed := fs.Int64("seed", 1, "simulation seed")
	journalPath := fs.String("journal", "", "recovery drill: write the recovered pool's ticket journal to this file (default in-memory)")
	metricsAddr := fs.String("metrics-addr", "", "serve live telemetry (/metrics /snapshot /healthz /readyz /debug/spans) on this address")
	hold := fs.Duration("hold", 0, "keep the process (and telemetry endpoint) alive this long after the figures finish")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// One observer feeds every figure's telemetry and, with
	// -metrics-addr, the live exporter. Readiness follows the drill
	// pool while one is running (ready otherwise).
	ob := obs.NewObserver(nil)
	gate := &readyGate{}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, ob, obs.HandlerOpts{Ready: gate.check})
		if err != nil {
			fmt.Fprintln(stderr, "moocsim:", err)
			return 1
		}
		defer srv.Close()
		rc := obs.StartRuntimeCollector(ob)
		defer rc.Stop()
		fmt.Fprintf(stdout, "serving telemetry on %s\n", srv.URL())
	}

	cohort := mooc.Simulate(mooc.PaperParams(), *seed)
	show := func(f string) bool { return *fig == "all" || *fig == f }

	if show("1") {
		fmt.Fprintln(stdout, "=== Figure 1: concept map (BDD snapshot) ===")
		cm := mooc.ConceptMap()
		for _, c := range cm {
			if c.Topic == "BDDs" || c.Topic == "Computational Boolean Algebra" {
				fmt.Fprintf(stdout, "  %-34s %-32s %3d slides\n", c.Topic, c.Name, c.Slides)
			}
		}
		concepts, slides, _ := mooc.ConceptStats(cm)
		fmt.Fprintf(stdout, "  course total: %d concepts, %d slides\n\n", concepts, slides)
	}
	if show("2") {
		fmt.Fprintln(stdout, "=== Figure 2: MOOC lecture catalog ===")
		ls := mooc.Lectures()
		count, hours, avg := mooc.LectureStats(ls)
		for _, l := range ls {
			fmt.Fprintf(stdout, "  %-5s %-44s %5.1f min\n", l.Index, l.Title, l.Minutes)
		}
		fmt.Fprintf(stdout, "  %d videos, average %.1f minutes, %.2f total hours\n", count, avg, hours)
		e := mooc.CourseEfficiency()
		fmt.Fprintf(stdout, "  efficiency: %d of %d slides (%.0f%%) in %.0f%% of the lecture time\n\n",
			e.MOOCSlides, e.TraditionalSlides, 100*e.ContentFraction(), 100*e.TimeFraction())
	}
	if show("8") {
		fmt.Fprintln(stdout, "=== Figure 8: participation funnel ===")
		f := cohort.Funnel()
		fmt.Fprintf(stdout, "  registered participants at peak : %6d\n", f.Registered)
		fmt.Fprintf(stdout, "  watched a video                 : %6d\n", f.WatchedVideo)
		fmt.Fprintf(stdout, "  did a homework                  : %6d\n", f.DidHomework)
		fmt.Fprintf(stdout, "  tried a software assignment     : %6d\n", f.TriedSoftware)
		fmt.Fprintf(stdout, "  took the final exam             : %6d\n", f.TookFinal)
		fmt.Fprintf(stdout, "  statements of accomplishment    : %6d\n", f.Certificates)
		low, high := cohort.CompetencyEstimate()
		fmt.Fprintf(stdout, "  serious-EDA-competency estimate : %d .. %d\n\n", low, high)
	}
	if show("9") {
		fmt.Fprintln(stdout, "=== Figure 9: per-lecture viewers (69 videos) ===")
		v := cohort.Viewership()
		for i, n := range v {
			if i%5 == 0 || i == len(v)-1 {
				bar := strings.Repeat("#", n/150)
				fmt.Fprintf(stdout, "  lecture %2d: %5d %s\n", i+1, n, bar)
			}
		}
		fmt.Fprintln(stdout)
	}
	if show("10") {
		fmt.Fprintln(stdout, "=== Figure 10: demographics ===")
		d := cohort.Demographics()
		total := len(cohort.Participants)
		for i, name := range d.TopCountries {
			if i >= 12 {
				break
			}
			fmt.Fprintf(stdout, "  %-16s %5.2f%%\n", name, 100*float64(d.ByCountry[name])/float64(total))
		}
		fmt.Fprintf(stdout, "  average age %.1f (min %d, max %d); female %.0f%%; BS %.0f%%, MS/PhD %.0f%%\n\n",
			d.AvgAge, d.MinAge, d.MaxAge, 100*d.FemaleShare, 100*d.BSShare, 100*d.MSPhDShare)
	}
	if show("forum") || *fig == "all" {
		fmt.Fprintln(stdout, "=== Section 3: forum activity (3 TAs) ===")
		fsim := cohort.SimulateForum(mooc.DefaultForumParams(), *seed)
		for _, w := range fsim.Weeks {
			fmt.Fprintf(stdout, "  week %2d: %5d active, %4d threads, %4d peer replies, %4d staff replies\n",
				w.Week, w.Active, w.Threads, w.PeerReplies, w.StaffReplies)
		}
		fmt.Fprintf(stdout, "  total %d threads, %.0f%% staff-answered, %.0f replies per TA\n\n",
			fsim.Threads, 100*fsim.AnsweredFraction, fsim.StaffPerTA)
	}
	if show("11") {
		fmt.Fprintln(stdout, "=== Figure 11: survey word cloud (top 20) ===")
		wc := mooc.MineWordCloud(mooc.SurveyResponses(1000, *seed))
		for i, w := range wc {
			if i >= 20 {
				break
			}
			fmt.Fprintf(stdout, "  %-14s %4d\n", w.Word, w.Count)
		}
		fmt.Fprintln(stdout)
	}
	if show("telemetry") {
		fmt.Fprintln(stdout, "=== Section 2.2: grading telemetry (200-participant sample) ===")
		tel := mooc.SimulateGrading(cohort, 4, 200, 3, 0.8, *seed, ob)
		fmt.Fprint(stdout, tel)
		fmt.Fprintln(stdout, "  metrics snapshot:")
		ob.Snapshot().Metrics.WriteText(stdout)
	}
	if show("portal") {
		if err := portalStorm(stdout, uint64(*seed), ob, gate); err != nil {
			fmt.Fprintln(stderr, "moocsim:", err)
			return 1
		}
	}
	if show("fairness") {
		if err := fairnessDrill(stdout, uint64(*seed), ob, gate); err != nil {
			fmt.Fprintln(stderr, "moocsim:", err)
			return 1
		}
	}
	if show("recovery") {
		if err := recoveryDrill(stdout, uint64(*seed), *journalPath, ob, gate); err != nil {
			fmt.Fprintln(stderr, "moocsim:", err)
			return 1
		}
	}
	if *hold > 0 {
		fmt.Fprintf(stdout, "holding for %v (scrape away)\n", *hold)
		time.Sleep(*hold)
	}
	return 0
}

// readyGate is a mutable /readyz check: nil (ready) until the drill
// pool installs its Ready method, cleared again before pool close.
type readyGate struct {
	mu sync.Mutex
	fn func() error
}

func (g *readyGate) set(fn func() error) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

func (g *readyGate) check() error {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// portalStorm drives the resilient job pool through a seeded fault
// storm — the operational drill behind the paper's "turn the cloud
// tools loose on planet earth" deployment. Every course tool is
// wrapped in a deterministic fault injector; concurrent users submit
// jobs; the report shows what the isolation machinery absorbed.
func portalStorm(w io.Writer, seed uint64, ob *obs.Observer, gate *readyGate) error {
	fmt.Fprintln(w, "=== portal resilience drill (job pool, seeded faults) ===")
	p := portal.NewPool(portal.PoolConfig{
		Workers:    4,
		QueueDepth: 64,
		Timeout:    25 * time.Millisecond,
		Retry:      portal.RetryPolicy{MaxAttempts: 2, BaseDelay: 200 * time.Microsecond, JitterFrac: 0.5},
		Breaker:    portal.BreakerConfig{FailureThreshold: 6, Cooldown: 20 * time.Millisecond},
		Seed:       seed,
		Observer:   ob,
	})
	defer p.Close()
	// /readyz follows the pool's breaker state for the duration of
	// the drill; cleared before Close so a held process reads ready.
	gate.set(p.Ready)
	defer gate.set(nil)

	cfg := fault.Config{Panic: 0.04, Hang: 0.02, Transient: 0.10,
		Slow: 0.05, Garbage: 0.04, SlowDelay: 200 * time.Microsecond}
	tools := []portal.Tool{portal.KBDDTool(), portal.EspressoTool(),
		portal.MiniSATTool(), portal.SISTool(), portal.AxbTool()}
	injectors := make(map[string]*fault.Injector, len(tools))
	var names []string
	for i, t := range tools {
		inj := fault.Wrap(t, seed+uint64(i)*1000, cfg)
		injectors[t.Name()] = inj
		names = append(names, t.Name())
		if err := p.Register(inj); err != nil {
			return err
		}
	}
	inputs := map[string]string{
		"kbdd":     "var a b c\nf = a & b | ~c\nsatcount f\n",
		"espresso": ".i 3\n.o 1\n111 1\n110 1\n101 1\n011 1\n.e\n",
		"minisat":  "p cnf 3 4\n1 2 0\n-1 3 0\n-2 3 0\n-3 0\n",
		"sis":      ".model m\n.inputs a b\n.outputs x\n.names a b x\n11 1\n.end\nprint_stats\n",
		"axb":      "2 cg\n2 -1\n-1 2\n1 1\n",
	}

	const users, jobsPerUser = 12, 10
	var ok, failed, shed, abandoned int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("participant-%03d", u)
			for j := 0; j < jobsPerUser; j++ {
				tool := names[(u+j)%len(names)]
				res, err := p.Submit(user, tool, inputs[tool])
				mu.Lock()
				switch {
				case err != nil:
					shed++
				case res.Abandoned:
					abandoned++
				case res.Err != "":
					failed++
				default:
					ok++
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	for _, inj := range injectors {
		inj.ReleaseHung()
	}

	fmt.Fprintf(w, "  %d users x %d jobs over %d fault-injected tools (seed %d)\n",
		users, jobsPerUser, len(tools), seed)
	fmt.Fprintf(w, "  outcomes: %d ok, %d failed, %d abandoned (runaway), %d shed\n",
		ok, failed, abandoned, shed)

	fmt.Fprintln(w, "  injected faults per tool:")
	for _, name := range names {
		counts := injectors[name].Counts()
		var classes []string
		for _, c := range []fault.Class{fault.Panic, fault.Hang, fault.Transient,
			fault.Slow, fault.Garbage} {
			if n := counts[c]; n > 0 {
				classes = append(classes, fmt.Sprintf("%v=%d", c, n))
			}
		}
		if len(classes) == 0 {
			classes = append(classes, "none")
		}
		fmt.Fprintf(w, "    %-9s %s\n", name, strings.Join(classes, " "))
	}

	m := ob.Snapshot().Metrics
	fmt.Fprintln(w, "  resilience counters:")
	keys := []string{"pool_jobs_total", "pool_retries", "portal_panics_recovered",
		"pool_jobs_timeout", "portal_jobs_abandoned", "portal_abandoned_returned",
		"pool_jobs_shed_queue", "pool_jobs_shed_breaker",
		"pool_breaker_open", "pool_breaker_half-open", "pool_breaker_closed"}
	for _, k := range keys {
		fmt.Fprintf(w, "    %-28s %6d\n", k, m.Counters[k])
	}
	fmt.Fprintln(w, "  breaker state by tool:")
	sort.Strings(names)
	for _, name := range names {
		if st, ok := p.BreakerState(name); ok {
			fmt.Fprintf(w, "    %-9s %s\n", name, st)
		}
	}
	return nil
}

// fairnessDrill drives the async ticket lifecycle the way one abusive
// participant would: a hot user floods SubmitAsync against nine
// normal users sharing the pool, while per-user quotas, the
// round-robin fair queue, and per-job deadlines keep the portal honest.
// The report shows who got served, who was shed, and checks that the
// ticket ledger balances — every admitted ticket reached exactly one
// terminal state. With -metrics-addr the whole run is scrapeable live
// (pool_tickets_total, pool_quota_sheds_total,
// pool_deadline_expiries_total, pool_queue_wait_seconds).
func fairnessDrill(w io.Writer, seed uint64, ob *obs.Observer, gate *readyGate) error {
	fmt.Fprintln(w, "=== portal fairness drill (async tickets, quotas, weighted-fair queue) ===")
	const (
		normalUsers = 9
		normalJobs  = 10
		hotJobs     = 120
		hotUser     = "hot-participant"
	)
	p := portal.NewPool(portal.PoolConfig{
		Workers:         4,
		QueueDepth:      32,
		Timeout:         25 * time.Millisecond,
		Seed:            seed,
		QuotaRate:       5,
		QuotaBurst:      30,
		FairShare:       0.25,
		DefaultDeadline: 2 * time.Second,
		UserClass: func(user string) string {
			if user == hotUser {
				return "flooder"
			}
			return "default"
		},
		Observer: ob,
	})
	defer p.Close()
	gate.set(p.Ready)
	defer gate.set(nil)

	// Every run costs ~1ms of worker time, injected deterministically,
	// so the queue backs up and the fair scheduler has load to arbitrate.
	slow := fault.Wrap(portal.AxbTool(), seed,
		fault.Config{Slow: 1, SlowDelay: time.Millisecond})
	if err := p.Register(slow); err != nil {
		return err
	}
	input := "2 cg\n2 -1\n-1 2\n1 1\n"

	type tally struct{ submitted, admitted, shed, completed, failed, expired, cancelled int }
	var (
		mu                  sync.Mutex
		hot, normal, fickle tally
		wg                  sync.WaitGroup
	)
	collect := func(t *tally, tickets []*portal.Ticket) {
		for _, tk := range tickets {
			_, _ = tk.Wait(nil)
			_, res, err := tk.Status()
			mu.Lock()
			switch {
			case err == portal.ErrDeadline:
				t.expired++
			case err == portal.ErrCancelled:
				t.cancelled++
			case res.Err != "":
				t.failed++
			default:
				t.completed++
			}
			mu.Unlock()
		}
	}
	submit := func(t *tally, user string, opts portal.TicketOpts) *portal.Ticket {
		tk, err := p.SubmitAsyncOpts(user, "axb", input, opts)
		mu.Lock()
		t.submitted++
		if err != nil {
			t.shed++
		} else {
			t.admitted++
		}
		mu.Unlock()
		return tk
	}
	for u := 0; u < normalUsers; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("participant-%03d", u)
			var mine []*portal.Ticket
			for j := 0; j < normalJobs; j++ {
				if tk := submit(&normal, user, portal.TicketOpts{}); tk != nil {
					mine = append(mine, tk)
				}
				time.Sleep(3 * time.Millisecond)
			}
			collect(&normal, mine)
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mine []*portal.Ticket
		for j := 0; j < hotJobs; j++ {
			opts := portal.TicketOpts{}
			// A few probes carry an already-hopeless deadline: they must
			// expire (where="queued"), never run, never reach history.
			if j%40 == 1 {
				opts.Deadline = time.Microsecond
			}
			if tk := submit(&hot, hotUser, opts); tk != nil {
				mine = append(mine, tk)
			}
			time.Sleep(200 * time.Microsecond)
		}
		collect(&hot, mine)
	}()
	// A fickle user changes their mind mid-storm: tickets cancelled
	// while still queued terminate with ErrCancelled, run nothing, and
	// leave no history entry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // let the queue back up first
		var mine []*portal.Ticket
		for j := 0; j < 2; j++ {
			if tk := submit(&fickle, "fickle-participant", portal.TicketOpts{}); tk != nil {
				tk.Cancel()
				mine = append(mine, tk)
			}
		}
		collect(&fickle, mine)
	}()
	wg.Wait()

	fmt.Fprintf(w, "  1 hot user x %d jobs vs %d normal users x %d jobs (seed %d)\n",
		hotJobs, normalUsers, normalJobs, seed)
	fmt.Fprintln(w, "  knobs: QuotaRate=5/s QuotaBurst=30 FairShare=0.25 DefaultDeadline=2s")
	fmt.Fprintln(w, "  per-class outcomes:")
	row := func(name string, t tally) {
		fmt.Fprintf(w, "    %-16s submitted %3d  admitted %3d  shed %3d  completed %3d  failed %2d  expired %2d  cancelled %2d\n",
			name, t.submitted, t.admitted, t.shed, t.completed, t.failed, t.expired, t.cancelled)
	}
	row("hot (flooder)", hot)
	row(fmt.Sprintf("normal (x%d)", normalUsers), normal)
	row("fickle (cancels)", fickle)
	if total := hot.completed + normal.completed; total > 0 {
		fmt.Fprintf(w, "  hot completion share: %.0f%% of %d completions (raw demand was %.0f%%)\n",
			100*float64(hot.completed)/float64(total), total,
			100*float64(hotJobs)/float64(hotJobs+normalUsers*normalJobs))
	}

	// Terminal counters land just after each ticket's done channel
	// closes, so give the ledger a brief settle window before judging.
	var adm, cmp, exp, cnc int64
	balanced := false
	for i := 0; i < 200 && !balanced; i++ {
		m := ob.Snapshot().Metrics
		state := func(s string) int64 {
			v, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": s})
			return v
		}
		adm, cmp, exp, cnc = state("admitted"), state("completed"), state("expired"), state("cancelled")
		balanced = adm == cmp+exp+cnc
		if !balanced {
			time.Sleep(10 * time.Millisecond)
		}
	}

	m := ob.Snapshot().Metrics
	fmt.Fprintln(w, "  fairness metrics:")
	for _, st := range []string{"admitted", "completed", "expired", "cancelled"} {
		v, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": st})
		fmt.Fprintf(w, "    pool_tickets_total{state=%q} %6d\n", st, v)
	}
	for _, cls := range []string{"flooder", "default"} {
		if v, ok := m.CounterSeries("pool_quota_sheds_total", map[string]string{"user_class": cls}); ok {
			fmt.Fprintf(w, "    pool_quota_sheds_total{user_class=%q} %6d\n", cls, v)
		}
	}
	for _, where := range []string{"queued", "running", "draining"} {
		if v, ok := m.CounterSeries("pool_deadline_expiries_total", map[string]string{"where": where}); ok {
			fmt.Fprintf(w, "    pool_deadline_expiries_total{where=%q} %6d\n", where, v)
		}
	}
	fmt.Fprintf(w, "    pool_queue_wait_seconds count %d\n",
		m.Histograms["pool_queue_wait_seconds"].Count)
	if !balanced {
		fmt.Fprintf(w, "  ticket ledger: IMBALANCED admitted=%d vs completed+expired+cancelled=%d\n",
			adm, cmp+exp+cnc)
		return fmt.Errorf("fairness drill: ticket ledger imbalanced")
	}
	fmt.Fprintf(w, "  ticket ledger: balanced (admitted %d == completed %d + expired %d + cancelled %d)\n",
		adm, cmp, exp, cnc)
	return nil
}

// journalBuf is an in-memory journal target (the drill's "disk").
type journalBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *journalBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *journalBuf) Sync() error { return nil }

func (b *journalBuf) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// recoveryDrill is the kill/restart exercise behind the crash-safety
// claim: drive the ticketed workload with the journal's writer cut
// mid-record at a seed-derived byte budget (the kill -9), restart the
// pool from the surviving prefix, drain it, and check that the
// conservation ledger balances across the crash. With -metrics-addr
// the run is scrapeable (pool_journal_records_total,
// pool_journal_bytes_total, pool_recovery_replayed_total); -journal
// writes the recovered pool's own journal to a file.
func recoveryDrill(w io.Writer, seed uint64, journalPath string, ob *obs.Observer, gate *readyGate) error {
	fmt.Fprintln(w, "=== portal recovery drill (write-ahead journal, crash mid-record) ===")
	const users, jobsPerUser = 6, 20
	input := "2 cg\n2 -1\n-1 2\n1 1\n"
	workload := func(j *portal.Journal, ob *obs.Observer) *portal.Pool {
		p := portal.NewPool(portal.PoolConfig{
			Workers: 4, QueueDepth: 64, Journal: j, Seed: seed, Observer: ob,
		})
		// A deterministic ~1ms run time keeps several tickets genuinely
		// mid-flight at the cut, so the restart has work to replay.
		slow := fault.Wrap(portal.AxbTool(), seed,
			fault.Config{Slow: 1, SlowDelay: time.Millisecond})
		if err := p.Register(slow); err != nil {
			panic(err) // fresh pool, static tool: cannot collide
		}
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				user := fmt.Sprintf("participant-%03d", u)
				for j := 0; j < jobsPerUser; j++ {
					p.Submit(user, "axb", input)
				}
			}(u)
		}
		wg.Wait()
		return p
	}

	// Probe one clean run (throwaway observer) to anchor the crash
	// budget at a real byte position of this workload's journal.
	probe := &journalBuf{}
	workload(portal.NewJournal(probe, portal.JournalOpts{}), obs.NewObserver(nil)).Close()
	base := len(probe.Bytes())
	budget := base * int(3+seed%5) / 8

	// First life: the journal's writer dies mid-record at the budget;
	// the pool itself keeps serving (availability over durability).
	ws := &journalBuf{}
	cw := fault.NewCrashWriter(ws, budget)
	p1 := workload(portal.NewJournal(cw, portal.JournalOpts{}), ob)
	rec1, _ := p1.Journal().Stats()
	jerr := p1.Journal().Err()
	p1.Close() // the dead process analogue: nothing past the cut survives
	if !cw.Crashed() || jerr == nil {
		return fmt.Errorf("recovery drill: crash budget %d of %d bytes never hit", budget, base)
	}
	fmt.Fprintf(w, "  first life : %d users x %d jobs (seed %d); journal cut mid-record at byte %d of %d\n",
		users, jobsPerUser, seed, budget, base)
	fmt.Fprintf(w, "               journal wedged after %d durable records: %v\n", rec1, jerr)

	// Restart: recover from exactly the bytes that reached "disk",
	// journaling the second life to -journal (or memory).
	var second portal.WriteSyncer = &journalBuf{}
	dest := "in-memory"
	if journalPath != "" {
		f, err := os.Create(journalPath)
		if err != nil {
			return err
		}
		defer f.Close()
		second = f
		dest = journalPath
	}
	p2, rep, err := portal.RecoverPool(portal.PoolConfig{
		Workers: 4, QueueDepth: 64, Seed: seed,
		Journal:  portal.NewJournal(second, portal.JournalOpts{}),
		Observer: ob,
	}, bytes.NewReader(ws.Bytes()), portal.AxbTool())
	if err != nil {
		return fmt.Errorf("recovery drill: %w", err)
	}
	gate.set(p2.Ready)
	fmt.Fprintf(w, "  restart    : replayed %d records (%d bytes), discarded %d torn tail bytes, snapshot used: %v\n",
		rep.Records, rep.Bytes, rep.TornBytes, rep.SnapshotUsed)
	fmt.Fprintf(w, "  dispositions: requeued %d, rerun (at-least-once) %d, expired %d, orphaned %d; history: %d users, %d entries\n",
		rep.Requeued, rep.Rerun, rep.Expired, rep.Orphaned, rep.HistoryUsers, rep.HistoryEntries)
	fmt.Fprintf(w, "  second life: journaling to %s\n", dest)
	gate.set(nil)
	p2.Close() // drain every restored ticket to a terminal state

	m := ob.Snapshot().Metrics
	fmt.Fprintln(w, "  journal metrics:")
	for _, k := range []string{"admit", "start", "done", "snapshot", "shed"} {
		v, _ := m.CounterSeries("pool_journal_records_total", map[string]string{"kind": k})
		fmt.Fprintf(w, "    pool_journal_records_total{kind=%q} %6d\n", k, v)
	}
	fmt.Fprintf(w, "    %-36s %6d\n", "pool_journal_bytes_total", m.Counters["pool_journal_bytes_total"])
	fmt.Fprintf(w, "    %-36s %6d\n", "pool_journal_errors_total", m.Counters["pool_journal_errors_total"])
	for _, d := range []string{"requeued", "rerun", "expired", "orphaned"} {
		if v, ok := m.CounterSeries("pool_recovery_replayed_total", map[string]string{"disposition": d}); ok {
			fmt.Fprintf(w, "    pool_recovery_replayed_total{disposition=%q} %6d\n", d, v)
		}
	}

	led := p2.Ledger()
	if !led.Balanced() {
		fmt.Fprintf(w, "  ticket ledger: IMBALANCED %+v\n", led)
		return fmt.Errorf("recovery drill: ticket ledger imbalanced across the crash")
	}
	fmt.Fprintf(w, "  ticket ledger: balanced across the crash (admitted %d == completed %d + expired %d + cancelled %d + replayed %d)\n",
		led.Admitted, led.Completed, led.Expired, led.Cancelled, led.Replayed)
	return nil
}
