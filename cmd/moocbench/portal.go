package main

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
)

// portalSpec is a portal workload: a traffic mix of course tool jobs
// submitted through Pool.SubmitAsync with a journal on a real file.
type portalSpec struct {
	// rate > 0 makes an open loop: Poisson arrivals at rate jobs/s for
	// -seconds. rate == 0 makes a closed loop of inflight clients that
	// each submit their next job when the last one completes, until
	// -seconds have passed; its job list holds perSecond jobs per second
	// of -seconds, more than the pool completes.
	rate      float64
	inflight  int
	perSecond float64

	users    int
	hotUsers int     // the first hotUsers users issue hotShare of the jobs
	hotShare float64 //
	// gen draws one input for each tool of the mix; the mix is uniform.
	gen map[string]func(*rand.Rand) string
	// distinct is how many different inputs each tool sees; jobs draw
	// from them uniformly, the way a cohort submits the same problems.
	distinct int
	// Every historyEvery-th submit is followed by HistoryN(user, historyN).
	historyEvery, historyN int
	pool                   portal.PoolConfig
	// setups is how many times set-up runs for the setup_s median.
	setups int
}

// Both portal workloads compact their journal every compactEvery
// records and give every ticket jobDeadline to finish.
const (
	compactEvery = 4096
	jobDeadline  = 5 * time.Second
)

var (
	// portalHomework is a synthetic mix: the paper reports no job rate
	// or tool mix. Its 1,377 users are the students who did a homework
	// (the Fig. 8 funnel in DESIGN.md); the rate, the uniform tool mix
	// and the input sizes are chosen. The rate is about a tenth of the
	// pool's capacity for this mix on the reference machine running at
	// its fast end (README.md), so its
	// throughput reads the offered rate until the pool saturates. The
	// machine's speed swings by up to half over minutes; at a higher load
	// queueing amplifies them into the median latency, and at 175 jobs/s
	// a slow spell saturated the pool until jobs missed their deadline.
	portalHomework = portalSpec{
		rate: 100, users: 1377,
		gen: map[string]func(*rand.Rand) string{
			"minisat":  func(r *rand.Rand) string { return cnfInput(r, 75, 4.1) },
			"espresso": func(r *rand.Rand) string { return plaInput(r, 9, 28) },
			"kbdd":     func(r *rand.Rand) string { return kbddInput(r, 16) },
			"sis":      func(r *rand.Rand) string { return sisInput(r, 50) },
			"axb":      func(r *rand.Rand) string { return axbInput(r, 32) },
		},
		distinct:     100,
		historyEvery: 4, historyN: 20,
		pool:   portal.PoolConfig{QueueDepth: 4096, HistoryLimit: 8, QuotaRate: 2, QuotaBurst: 10},
		setups: 3,
	}
	portalStorm = portalSpec{
		inflight: 64, perSecond: 8000, users: 400, hotUsers: 4, hotShare: 0.4,
		gen:          map[string]func(*rand.Rand) string{"kbdd": tinyKBDDInput},
		distinct:     512,
		historyEvery: 1, historyN: 8,
		pool:   portal.PoolConfig{QueueDepth: 256, HistoryLimit: 8, FairShare: 0.25},
		setups: 15,
	}
)

// poolConfig is the workload's pool configuration without its journal
// and observer.
func (spec portalSpec) poolConfig() portal.PoolConfig {
	pc := spec.pool
	pc.DefaultDeadline = jobDeadline
	return pc
}

// toolSet collects the course tools by name through portal.CourseTools.
type toolSet map[string]portal.Tool

func (s toolSet) Register(t portal.Tool) error {
	s[t.Name()] = t
	return nil
}

func courseTools() toolSet {
	s := toolSet{}
	_ = portal.CourseTools(s) // toolSet.Register never fails
	return s
}

type job struct {
	due   time.Duration // open loop: arrival offset from the start
	user  string
	tool  string
	input int
}

// portalState is what one set-up builds: inputs with their reference
// outputs, the job list, and a pool journaling to a fresh file.
type portalState struct {
	tools   []string
	inputs  map[string][]string
	refs    map[string][]string
	work    map[string][]float64 // per-input tool work counts parsed from the reference
	jobs    []job
	path    string
	file    *os.File
	journal *portal.Journal
	pool    *portal.Pool
	ob      *obs.Observer
}

var (
	conflictsRe  = regexp.MustCompile(`conflicts=(\d+)`)
	iterationsRe = regexp.MustCompile(`\((\d+) iterations\)`)
)

// setupPortal generates the inputs and job list from the seed, computes
// every reference output by calling the tool directly, and starts a
// pool whose journal writes to a new file in the temporary directory.
func setupPortal(cfg *config, spec portalSpec, tr *tracer) (*portalState, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	direct := courseTools()
	st := &portalState{inputs: map[string][]string{}, refs: map[string][]string{}, work: map[string][]float64{}}
	for _, name := range []string{"kbdd", "espresso", "minisat", "sis", "axb"} {
		gen, ok := spec.gen[name]
		if !ok {
			continue
		}
		st.tools = append(st.tools, name)
		for i := 0; i < cfg.distinct(spec.distinct); i++ {
			in := gen(rng)
			out, err := direct[name].Run(in, nil)
			if err != nil {
				return nil, fmt.Errorf("%s reference %d: %v", name, i, err)
			}
			if err := checkReference(name, in, out); err != nil {
				return nil, fmt.Errorf("%s reference %d: %v", name, i, err)
			}
			st.inputs[name] = append(st.inputs[name], in)
			st.refs[name] = append(st.refs[name], out)
			st.work[name] = append(st.work[name], workCount(name, out))
		}
	}

	users := make([]string, spec.users)
	for i := range users {
		users[i] = fmt.Sprintf("student%04d", i)
	}
	pick := func() job {
		u := users[spec.hotUsers+rng.Intn(spec.users-spec.hotUsers)]
		if spec.hotUsers > 0 && rng.Float64() < spec.hotShare {
			u = users[rng.Intn(spec.hotUsers)]
		}
		tool := st.tools[rng.Intn(len(st.tools))]
		return job{user: u, tool: tool, input: rng.Intn(len(st.inputs[tool]))}
	}
	if spec.rate > 0 {
		horizon := cfg.seconds
		for t := rng.ExpFloat64() / spec.rate; t < horizon; t += rng.ExpFloat64() / spec.rate {
			j := pick()
			j.due = time.Duration(t * float64(time.Second))
			st.jobs = append(st.jobs, j)
		}
	} else {
		n := max(1, int(cfg.seconds*spec.perSecond))
		for i := 0; i < n; i++ {
			st.jobs = append(st.jobs, pick())
		}
	}

	f, err := os.CreateTemp("", "journal-*.wal")
	if err != nil {
		return nil, err
	}
	st.file, st.path = f, f.Name()
	var ws portal.WriteSyncer = f
	if tr != nil {
		ws = timedJournal{f: f, tr: tr}
	}
	st.journal = portal.NewJournal(ws, portal.JournalOpts{CompactEvery: compactEvery})
	pc := spec.poolConfig()
	pc.Journal = st.journal
	st.ob = obs.NewObserver(nil)
	pc.Observer = st.ob
	st.pool = portal.NewPool(pc)
	for _, name := range st.tools {
		t := direct[name]
		if tr != nil {
			t = toolTimer{Tool: t, tr: tr, span: "portal.tool." + name}
		}
		if cfg.wrapTool != nil {
			t = cfg.wrapTool(t)
		}
		if err := st.pool.Register(t); err != nil {
			st.discard()
			return nil, err
		}
	}
	return st, nil
}

// discard closes the pool and deletes the journal file.
func (st *portalState) discard() {
	st.pool.Close()
	st.file.Close()
	os.Remove(st.path)
}

// checkReference verifies a reference output where an independent
// check exists: SAT models satisfy their CNF, axb solutions solve the
// system.
func checkReference(tool, in, out string) error {
	switch tool {
	case "minisat":
		return checkSATModel(in, out)
	case "axb":
		res, err := axbResidual(in, out)
		if err != nil {
			return err
		}
		if res > 1e-6 {
			return fmt.Errorf("axb residual %g > 1e-6", res)
		}
	}
	return nil
}

// workCount is the tool's own work report for one job, read from its
// output: CDCL conflicts for minisat, espresso loop iterations.
func workCount(tool, out string) float64 {
	var re *regexp.Regexp
	switch tool {
	case "minisat":
		re = conflictsRe
	case "espresso":
		re = iterationsRe
	default:
		return 0
	}
	total := 0.0
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		v, _ := strconv.Atoi(m[1]) // the pattern matched digits
		total += float64(v)
	}
	return total
}

// toolTimer records a span around each Run of the tool it wraps.
type toolTimer struct {
	portal.Tool
	tr   *tracer
	span string
}

func (t toolTimer) Run(input string, cancel <-chan struct{}) (string, error) {
	t0 := time.Now()
	out, err := t.Tool.Run(input, cancel)
	t.tr.add(t.span, t0, time.Since(t0))
	return out, err
}

// timedJournal records a span around each Write and Sync the journal
// makes on its file.
type timedJournal struct {
	f  *os.File
	tr *tracer
}

func (j timedJournal) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := j.f.Write(p)
	j.tr.add("portal.journal.write", t0, time.Since(t0))
	return n, err
}

func (j timedJournal) Sync() error {
	t0 := time.Now()
	err := j.f.Sync()
	j.tr.add("portal.journal.sync", t0, time.Since(t0))
	return err
}

// outcome is what the benchmark saw for one job: its latency, or why
// it failed.
type outcome struct {
	latency time.Duration
	problem string
}

// runPortalWorkload drives the job list through the pool, checks every
// output against its reference, closes the pool, and recovers a new
// pool from the journal file.
func runPortalWorkload(cfg *config, r *result, spec portalSpec) error {
	st, err := repeatSetup(r, cfg.setups(spec.setups), func() (*portalState, error) { return setupPortal(cfg, spec, r.tr) },
		(*portalState).discard)
	if err != nil {
		return err
	}
	defer os.Remove(st.path)

	outs := make([]outcome, len(st.jobs))
	var lateness []float64
	// submit admits job i, reads the user's history page when the mix
	// says so, and returns the ticket, or nil when admission failed.
	submit := func(i int) *portal.Ticket {
		j := st.jobs[i]
		t0 := time.Now()
		tk, err := st.pool.SubmitAsync(j.user, j.tool, st.inputs[j.tool][j.input])
		r.tr.add("portal.submit", t0, time.Since(t0))
		if i%spec.historyEvery == 0 {
			t0 = time.Now()
			st.pool.HistoryN(j.user, spec.historyN)
			r.tr.add("portal.history", t0, time.Since(t0))
		}
		if err != nil {
			outs[i].problem = fmt.Sprintf("job %d (%s for %s): %v", i, j.tool, j.user, err)
		}
		return tk
	}
	// finish waits for job i's ticket and judges its result against the
	// reference as soon as it arrives, so no output outlives its check.
	finish := func(i int, tk *portal.Ticket, from time.Time) {
		t0 := time.Now()
		res, err := tk.Wait(nil)
		done := time.Now()
		r.tr.add("portal.wait", t0, done.Sub(t0))
		j := st.jobs[i]
		switch {
		case err != nil:
			outs[i].problem = fmt.Sprintf("job %d (%s for %s): %v", i, j.tool, j.user, err)
		case res.Err != "":
			outs[i].problem = fmt.Sprintf("job %d (%s): tool error: %s", i, j.tool, res.Err)
		case res.Output != st.refs[j.tool][j.input]:
			outs[i].problem = fmt.Sprintf("job %d (%s input %d): output differs from the reference", i, j.tool, j.input)
		default:
			outs[i].latency = done.Sub(from)
		}
	}

	reg := startRegion()
	start := reg.start
	taken := len(st.jobs)
	var next atomic.Int64 // closed loop: jobs taken so far
	var wg sync.WaitGroup
	if spec.rate > 0 {
		for i, j := range st.jobs {
			due := start.Add(j.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lateness = append(lateness, time.Since(due).Seconds())
			tk := submit(i)
			if tk == nil {
				continue
			}
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				finish(i, tk, due)
			}(i, due)
		}
	} else {
		end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
		for c := 0; c < spec.inflight; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					i := int(next.Add(1) - 1)
					if i >= len(st.jobs) {
						return
					}
					t0 := time.Now()
					if tk := submit(i); tk != nil {
						finish(i, tk, t0)
					}
				}
			}()
		}
	}
	wg.Wait()
	elapsed := reg.end(r)
	if spec.rate == 0 {
		taken = min(int(next.Load()), len(st.jobs))
	}

	// Everything below is outside the timed region.
	var lat []float64
	work := map[string]float64{}
	jobsOf := map[string]int{}
	for i, o := range outs[:taken] {
		j := st.jobs[i]
		r.attempted++
		if o.problem != "" {
			r.fail("%s", o.problem)
			continue
		}
		lat = append(lat, o.latency.Seconds())
		work[j.tool] += st.work[j.tool][j.input]
		jobsOf[j.tool]++
	}
	st.pool.Close()
	ledger := st.pool.Ledger()
	if !ledger.Balanced() {
		r.fail("pool ledger unbalanced after close: %+v", ledger)
	}
	if err := st.journal.Err(); err != nil {
		r.fail("journal: %v", err)
	}
	records, bytes := st.journal.Stats()
	if err := st.file.Close(); err != nil {
		return err
	}
	// A pool recovers in a restarted process, so the serving process's
	// peak is read before recovery runs here.
	r.metrics["runtime.peak_rss_mb"] = single("MB", peakRSSMB())
	recoverS, err := recoverJournal(st, spec, r, records, bytes, ledger)
	if err != nil {
		return err
	}

	m := r.metrics
	done := float64(len(lat))
	m["throughput"] = single("1/s", done/elapsed.Seconds())
	m["latency_ms"] = single("ms", 1000*percentile(lat, 50))
	m["portal.job.p99_s"] = single("s", percentile(lat, 99))
	m["portal.recover.s"] = single("s", recoverS.Seconds())
	m["portal.journal.syncs"] = single("count", float64(records))
	m["portal.journal.bytes"] = single("B", float64(bytes))
	m["portal.journal.bytes_per_job"] = single("B", ratio(float64(bytes), float64(taken)))
	m["portal.queue_wait.mean_s"] = single("s", st.ob.Registry().Snapshot().Histograms["pool_queue_wait_seconds"].Mean())
	m["tool.minisat.conflicts"] = single("count", ratio(work["minisat"], float64(jobsOf["minisat"])))
	m["tool.espresso.iterations"] = single("count", ratio(work["espresso"], float64(jobsOf["espresso"])))
	if spec.rate > 0 {
		m["gen.late_p99_s"] = single("s", percentile(lateness, 99))
	}
	if cfg.trace {
		sub, hist := r.tr.durations("portal.submit"), r.tr.durations("portal.history")
		m["portal.submit.p50_s"] = single("s", percentile(sub, 50))
		m["portal.submit.p99_s"] = single("s", percentile(sub, 99))
		m["portal.history.p50_s"] = single("s", percentile(hist, 50))
		m["portal.history.p99_s"] = single("s", percentile(hist, 99))
		m["portal.history.reads"] = single("count", float64(len(hist)))
		write, sync := sum(r.tr.durations("portal.journal.write")), sum(r.tr.durations("portal.journal.sync"))
		m["portal.journal.write_s"] = single("s", write)
		m["portal.journal.sync_s"] = single("s", sync)
		busy := 0.0
		for _, name := range st.tools {
			d := r.tr.durations("portal.tool." + name)
			busy += sum(d)
			m["portal.tool."+name+".busy_s"] = single("s", sum(d))
			m["portal.tool."+name+".jobs"] = single("count", float64(len(d)))
		}
		m["portal.tool.busy_share"] = single("ratio", ratio(busy, busy+write+sync))
	}
	return nil
}

// recoverJournal replays the run's journal file into a new pool and
// checks that it recovered every record and a balanced ledger equal to
// the one the live pool closed with. It returns RecoverPool's time.
func recoverJournal(st *portalState, spec portalSpec, r *result, records, bytes int64, want portal.Ledger) (time.Duration, error) {
	f, err := os.Open(st.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tools := courseTools()
	var list []portal.Tool
	for _, name := range st.tools {
		list = append(list, tools[name])
	}
	pc := spec.poolConfig()
	pc.Observer = obs.NewObserver(nil)
	t0 := time.Now()
	p, rep, err := portal.RecoverPool(pc, f, list...)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	p.Close()
	if int64(rep.Records) != records || rep.Bytes != bytes {
		r.fail("recovery replayed %d records / %d bytes, journal wrote %d / %d", rep.Records, rep.Bytes, records, bytes)
	}
	if got := p.Ledger(); !got.Balanced() || got != want {
		r.fail("recovered ledger %+v, live pool closed with %+v", got, want)
	}
	return d, nil
}
