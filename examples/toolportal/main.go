// Toolportal demonstrates the paper's Figure 4 cloud architecture in
// miniature: a participant submits text jobs to the five deployed EDA
// tools through the resilient job pool (bounded workers, bounded
// queue, retry with backoff, per-tool circuit breakers), a flaky tool
// shows retries absorbing transient faults, the async ticket
// lifecycle runs submit-and-come-back-later (Wait, deadline expiry,
// cancellation), the auto-grader scores a Project 4 submission, and
// the per-user result history scrolls newest-first. Every job feeds the portal's telemetry, printed as a
// report at the end — the operational view the paper's cloud
// deployment ran on.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"vlsicad/internal/fault"
	"vlsicad/internal/grader"
	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
	"vlsicad/internal/route"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "",
		"serve live telemetry (/metrics /snapshot /healthz /readyz /debug/spans) on this address")
	hold := flag.Duration("hold", 0,
		"keep the portal (and telemetry endpoint) alive this long after the demo finishes")
	journalPath := flag.String("journal", "",
		"write-ahead ticket journal file; the demo recovers a warm twin pool from it at the end")
	flag.Parse()

	// With -journal the pool is crash-safe: every ticket transition is
	// framed, checksummed, and synced to the file before the pool acts
	// on it, and RecoverPool can rebuild the warm state from the log.
	var jr *portal.Journal
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jr = portal.NewJournal(f, portal.JournalOpts{})
	}
	ob := obs.NewObserver(nil)
	p := portal.NewPool(portal.PoolConfig{
		Workers:    4,
		QueueDepth: 16,
		Timeout:    2 * time.Second,
		Retry:      portal.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, JitterFrac: 0.5},
		Breaker:    portal.BreakerConfig{FailureThreshold: 5, Cooldown: 100 * time.Millisecond},
		Journal:    jr,
		Observer:   ob,
	})
	defer p.Close()
	if *metricsAddr != "" {
		// The live telemetry plane: scrape /metrics while the demo
		// runs; /readyz follows the pool's breaker state.
		srv, err := obs.Serve(*metricsAddr, ob, obs.HandlerOpts{Ready: p.Ready})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		rc := obs.StartRuntimeCollector(ob)
		defer rc.Stop()
		fmt.Printf("serving telemetry on %s\n", srv.URL())
	}
	if err := portal.CourseTools(p); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pool serving tools: %v\n\n", p.Tools())

	user := "participant-17042"
	jobs := []struct{ tool, input string }{
		{"kbdd", "var a b c\nf = a & b | ~c\nsatcount f\nnodes f\n"},
		{"espresso", ".i 3\n.o 1\n111 1\n110 1\n101 1\n011 1\n.e\n"},
		{"minisat", "p cnf 3 4\n1 2 0\n-1 3 0\n-2 3 0\n-3 0\n"},
		{"sis", ".model m\n.inputs a b c d\n.outputs x\n.names a b c d x\n11-- 1\n--11 1\n.end\nfx\nprint_stats\n"},
		{"axb", "2 cg\n2 -1\n-1 2\n1 1\n"},
	}
	for _, j := range jobs {
		res, err := p.Submit(user, j.tool, j.input)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s (%.1fms) ---\n%s\n", j.tool,
			float64(res.Duration.Microseconds())/1000, firstLines(res.Output, 3))
	}

	// A flaky tool: the first two attempts fail transiently, then it
	// succeeds — the retry/backoff loop absorbs the fault so the
	// participant sees one clean result.
	flaky := fault.Script(echo{}, fault.Transient, fault.Transient, fault.None)
	if err := p.Register(flaky); err != nil {
		log.Fatal(err)
	}
	res, err := p.Submit(user, "echo", "flaky tool demo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flaky tool: output %q after %d attempts (2 transient faults retried)\n\n",
		res.Output, res.Attempts)

	// The async ticket lifecycle: SubmitAsync returns immediately with
	// a pollable/waitable ticket, a hopeless deadline expires a job
	// wherever it is, and a queued ticket can be cancelled — the
	// browser-side "submit, keep browsing, come back for the result"
	// flow of the paper's portal.
	fmt.Println("async ticket lifecycle:")
	tk, err := p.SubmitAsync(user, "echo", "async demo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  submitted ticket: tool=%s state=%s\n", tk.Tool(), tk.State())
	res, err = tk.Wait(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  waited: state=%s output=%q\n", tk.State(), res.Output)
	// Pin the user's lane (a user runs one job at a time) so the next
	// two tickets provably sit in the queue for their demos.
	release := make(chan struct{})
	if err := p.Register(blocker{release}); err != nil {
		log.Fatal(err)
	}
	gate, err := p.SubmitAsync(user, "gate", "pin the lane")
	if err != nil {
		log.Fatal(err)
	}
	for gate.State() != portal.TicketRunning {
		time.Sleep(100 * time.Microsecond)
	}
	doomed, err := p.SubmitAsyncOpts(user, "echo", "too late",
		portal.TicketOpts{Deadline: time.Microsecond})
	if err != nil {
		log.Fatal(err)
	}
	if _, werr := doomed.Wait(nil); werr != nil {
		fmt.Printf("  1us-deadline ticket: %v\n", werr)
	}
	regret, err := p.SubmitAsync(user, "echo", "never mind")
	if err != nil {
		log.Fatal(err)
	}
	regret.Cancel()
	if _, werr := regret.Wait(nil); werr != nil {
		fmt.Printf("  cancelled ticket:    %v\n", werr)
	}
	close(release)
	if _, err := gate.Wait(nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Println("auto-grading a Project 4 submission (reference router output):")
	g := route.NewGrid(8, 8, route.DefaultCost())
	nets := []route.Net{
		{Name: "a", A: route.Point{X: 0, Y: 1, L: 0}, B: route.Point{X: 6, Y: 1, L: 0}},
		{Name: "b", A: route.Point{X: 0, Y: 3, L: 0}, B: route.Point{X: 6, Y: 3, L: 0}},
	}
	routed := route.RouteAll(g.Clone(), nets, route.Opts{Alg: route.AStar})
	submission := grader.FormatRoutes(routed.Paths)
	fmt.Println(grader.GradeRouting(g, nets, submission))

	fmt.Printf("history for %s (newest first, latest page):\n", user)
	for _, h := range p.HistoryN(user, 10) {
		status := "ok"
		if h.Err != "" {
			status = "error: " + h.Err
		}
		fmt.Printf("  %-9s %s\n", h.Tool, status)
	}
	fmt.Println("breaker states:")
	for _, name := range p.Tools() {
		if st, ok := p.BreakerState(name); ok {
			fmt.Printf("  %-9s %s\n", name, st)
		}
	}

	if *journalPath != "" {
		// Recovery demo: reopen the log this very process has been
		// appending to and rebuild a warm twin pool — same per-user
		// history, same ledger, nothing re-run (every ticket above
		// already reached a terminal state).
		recs, jbytes := p.Journal().Stats()
		fmt.Printf("\n=== journal recovery demo ===\n")
		fmt.Printf("journal %s: %d records, %d bytes synced\n", *journalPath, recs, jbytes)
		data, err := os.ReadFile(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		twin, rep, err := portal.RecoverPool(portal.PoolConfig{
			Workers: 4, QueueDepth: 16,
		}, bytes.NewReader(data), portal.KBDDTool(), portal.EspressoTool(),
			portal.MiniSATTool(), portal.SISTool(), portal.AxbTool())
		if err != nil {
			log.Fatal(err)
		}
		defer twin.Close()
		fmt.Printf("recovered twin: %d records replayed, %d history entries for %d users, requeued %d, rerun %d\n",
			rep.Records, rep.HistoryEntries, rep.HistoryUsers, rep.Requeued, rep.Rerun)
		if sameHistory(twin.History(user), p.History(user)) {
			fmt.Printf("history for %s replayed identically\n", user)
		} else {
			fmt.Printf("history for %s DIVERGED after replay\n", user)
		}
	}

	fmt.Println("\n=== portal telemetry ===")
	ob.Snapshot().WriteText(os.Stdout)

	if *hold > 0 {
		fmt.Printf("holding for %v (scrape away)\n", *hold)
		time.Sleep(*hold)
	}
}

// sameHistory compares two history pages field by field. The journal
// stores timestamps as instants, so replayed entries come back in UTC;
// time.Time.Equal is the right comparison, not DeepEqual.
func sameHistory(a, b []portal.JobResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.When.Equal(y.When) {
			return false
		}
		x.When, y.When = time.Time{}, time.Time{}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// blocker holds its worker until released (or cancelled) — used to
// keep the demo's queued-ticket scenarios deterministic.
type blocker struct{ release chan struct{} }

func (b blocker) Name() string     { return "gate" }
func (b blocker) Describe() string { return "blocks until released" }
func (b blocker) Run(input string, cancel <-chan struct{}) (string, error) {
	select {
	case <-b.release:
		return "released", nil
	case <-cancel:
		return "", nil
	}
}

type echo struct{}

func (echo) Name() string     { return "echo" }
func (echo) Describe() string { return "returns its input" }
func (echo) Run(input string, cancel <-chan struct{}) (string, error) {
	return input, nil
}

func firstLines(s string, n int) string {
	out := ""
	count := 0
	for _, line := range splitKeep(s) {
		out += line
		count++
		if count >= n {
			break
		}
	}
	return out
}

func splitKeep(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		cur += string(r)
		if r == '\n' {
			out = append(out, cur)
			cur = ""
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
