package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"conspec/internal/buildinfo"
	"conspec/internal/diskcache"
	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/fleet"
	"conspec/internal/obs/trace"
	"conspec/internal/serve"
	"conspec/internal/serve/client"
	"conspec/internal/serve/journal"
)

// fleetWorkers is the fleet's worker count, one per vCPU of the reference
// 2-vCPU host; each has one slot and one simulation worker. The reference
// executions of verifyJobs use as many goroutines.
const fleetWorkers = 2

// streamLen bounds the generated stream; a run consumes a prefix, a few
// hundred jobs on the reference 2-vCPU host. A run that reaches the end
// fails.
const streamLen = 2048

// warmupJob primes a fresh service before timing starts. Its budgets
// differ from every stream job's, so it shares no result-store entry with
// the stream.
var warmupJob = serve.JobSpec{Suite: "fig5", Benches: []string{"astar"}, Warmup: 1_000, Measure: 4_000}

// serviceEnv is one set-up of the service workload: a result store, a job
// journal, a serve.Server whose executor is a fleet coordinator, a
// loopback HTTP server for both, and in-process fleet workers.
type serviceEnv struct {
	dir    string
	store  *diskcache.Store
	probe  *storeProbe
	jr     *journal.Journal
	srv    *serve.Server
	coord  *fleet.Coordinator
	exec   *executorProbe
	fleetQ *fleetRequests
	hs     *httptest.Server
	client *client.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	workerErr   atomic.Value // first worker error, if any
}

// openService builds a service in a fresh directory under parent. With a
// tracer, the store, the fleet executor and the fleet's HTTP routes are
// wrapped in timing decorators; without one only the store is wrapped,
// and only to count.
func openService(ctx context.Context, parent string, tr *trace.Tracer) (_ *serviceEnv, err error) {
	dir, err := os.MkdirTemp(parent, "svc-")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.store, err = diskcache.OpenWith(filepath.Join(dir, "cache"), diskcache.Options{}); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var recovered []journal.State
	if e.jr, recovered, err = journal.Open(filepath.Join(dir, "journal"), journal.Options{}); err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	// The workers reach the store only through the coordinator's
	// /fleet/v1/results routes, so every Get and Put here is one of their
	// remote-store round trips.
	e.probe = &storeProbe{inner: e.store, tr: tr}
	e.coord = fleet.NewCoordinator(fleet.CoordinatorOptions{Store: e.probe, Journal: e.jr})
	var exec serve.Executor = e.coord
	if tr != nil {
		e.exec = &executorProbe{inner: e.coord, tr: tr}
		exec = e.exec
	}
	e.srv = serve.New(serve.Config{
		// As in conspec-served's coordinator role: an executing job is a
		// goroutine awaiting a lease, so the job pool is wide.
		Workers:   32,
		Journal:   e.jr,
		Recovered: recovered,
		Executor:  exec,
		Capacity:  e.coord.Capacity,
	})
	h := e.coord.Handler(e.srv.Handler())
	if tr != nil {
		e.fleetQ = newFleetRequests(tr)
		h = e.fleetQ.wrap(h)
	}
	e.hs = httptest.NewServer(h)
	e.client = client.New(e.hs.URL)
	if err := e.startWorkers(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// startWorkers starts fleetWorkers single-slot fleet workers over
// loopback and waits until all have registered.
func (e *serviceEnv) startWorkers(ctx context.Context) error {
	wctx, cancel := context.WithCancel(context.Background())
	e.stopWorkers = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := fleet.NewWorker(fleet.WorkerOptions{
			Coordinator: e.hs.URL,
			Name:        fmt.Sprintf("bench-w%d", i+1),
			Slots:       1,
			SimWorkers:  1,
		})
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			if err := w.Run(wctx); err != nil {
				e.workerErr.CompareAndSwap(nil, err)
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for e.coord.Capacity() < fleetWorkers {
		if err, _ := e.workerErr.Load().(error); err != nil {
			return fmt.Errorf("fleet worker: %w", err)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("fleet workers did not register (capacity %d)", e.coord.Capacity())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops everything openService started, waits for it, and removes
// the directory.
func (e *serviceEnv) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := e.srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: drain: %v\n", err)
		}
		cancel()
	}
	if e.stopWorkers != nil {
		e.stopWorkers()
	}
	if e.coord != nil {
		e.coord.Close() // ends the workers' lease long-polls
	}
	e.workers.Wait()
	if e.hs != nil {
		e.hs.Close()
	}
	if e.jr != nil {
		if err := e.jr.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close journal: %v\n", err)
		}
	}
	if e.store != nil {
		e.store.Close()
	}
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// jobRecord is what one client observed of one job.
type jobRecord struct {
	job     streamJob
	latency time.Duration // Submit to the terminal status the client saw
	cpu     time.Duration // process CPU over the same interval
	submit  time.Duration
	fetch   time.Duration
	refused bool // 429 or 503
	err     string
	status  serve.JobStatus // the fetched terminal status, with result
	// simWalls are the run-done wall times the job's event stream carried.
	simWalls []float64
}

func (r jobRecord) ok() bool {
	return r.err == "" && r.status.Status == serve.StatusDone && r.status.FailedRuns == 0 && r.status.Result != nil
}

// runJob submits one job, watches it to a terminal state and fetches its
// result document, with a span around each call.
func runJob(ctx context.Context, c *client.Client, j streamJob, tr *trace.Tracer) jobRecord {
	rec := jobRecord{job: j}
	root := tr.Begin(trace.NoSpan, "job")
	defer tr.End(root)
	t0, cpu0 := time.Now(), cpuTime()
	sp := tr.Begin(root, "serve.submit")
	st, err := c.Submit(ctx, j.Spec)
	tr.End(sp)
	rec.submit = time.Since(t0)
	if err != nil {
		var ae *client.APIError
		rec.refused = errors.As(err, &ae) && (ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable)
		rec.err = fmt.Sprintf("submit: %v", err)
		return rec
	}
	sp = tr.Begin(root, "serve.watch")
	var terminal serve.Status
	err = c.Watch(ctx, st.ID, func(ev serve.Event) error {
		if ev.Progress != nil && ev.Progress.Phase == exp.PhaseRunDone {
			rec.simWalls = append(rec.simWalls, ms(ev.Progress.Wall))
		}
		if ev.Terminal() {
			rec.latency, rec.cpu = time.Since(t0), cpuTime()-cpu0
			terminal = ev.Status
		}
		return nil
	})
	tr.End(sp)
	if err != nil {
		rec.err = fmt.Sprintf("watch %s: %v", st.ID, err)
		return rec
	}
	t1 := time.Now()
	sp = tr.Begin(root, "serve.fetch")
	rec.status, err = c.Get(ctx, st.ID)
	tr.End(sp)
	rec.fetch = time.Since(t1)
	if err != nil {
		rec.err = fmt.Sprintf("fetch %s: %v", st.ID, err)
	} else if !rec.status.Status.Terminal() || rec.status.Status != terminal {
		rec.err = fmt.Sprintf("job %s: watched %s, fetched %s", st.ID, terminal, rec.status.Status)
	}
	return rec
}

// runStream drives the closed loop: one client submits the next stream
// job and waits for it to finish, as `conspec-ctl submit -watch` does,
// until the deadline passes. With one job in flight, the process CPU
// between a job's Submit and its terminal status is that job's CPU. It
// calls mark before each job and once after the last, so consecutive
// marks bracket one job.
func runStream(ctx context.Context, c *client.Client, jobs []streamJob, deadline time.Time, tr *trace.Tracer, mark func()) []jobRecord {
	var recs []jobRecord
	for len(recs) < len(jobs) && time.Now().Before(deadline) && ctx.Err() == nil {
		mark()
		recs = append(recs, runJob(ctx, c, jobs[len(recs)], tr))
	}
	mark()
	return recs
}

// usage is the process's CPU and heap allocation and the simulation work
// the result store has received, at one point of a timed phase.
type usage struct {
	cpu       time.Duration
	alloc     uint64 // heap bytes allocated
	committed uint64 // measure-phase committed instructions of stored results
	puts      int
}

// serviceHalf is one timed phase on one service set-up.
type serviceHalf struct {
	recs       []jobRecord
	iv         interval
	peakRSS    float64 // MB, at the end of the timed phase
	env        *serviceEnv
	gets, hits int // store lookups in the phase
	// The store's and the journal's occupancy after the phase.
	storeBytes     int64
	walBytes       int64
	journalAppends uint64
	// marks[k] is the usage before job k; the last is after the last job.
	marks []usage
}

// timedStream runs the stream on env for budget and measures it.
func timedStream(ctx context.Context, env *serviceEnv, jobs []streamJob, budget time.Duration, tr *trace.Tracer) serviceHalf {
	gets0, hits0, _, _ := env.probe.counts()
	var marks []usage
	mark := func() {
		_, _, puts, committed := env.probe.counts()
		marks = append(marks, usage{cpu: cpuTime(), alloc: readRuntime().allocBytes, committed: committed, puts: puts})
	}
	m := startMeter()
	recs := runStream(ctx, env.client, jobs, time.Now().Add(budget), tr, mark)
	iv := m.stop()
	gets, hits, _, _ := env.probe.counts()
	walBytes, appends, _ := env.jr.Sizes()
	return serviceHalf{recs: recs, iv: iv,
		peakRSS: peakRSSMB(), env: env, gets: gets - gets0, hits: hits - hits0,
		storeBytes: env.store.Stats().Bytes, walBytes: walBytes, journalAppends: appends, marks: marks}
}

// setupService opens a service and completes the warm-up job on it.
func setupService(ctx context.Context, parent string, tr *trace.Tracer) (*serviceEnv, error) {
	env, err := openService(ctx, parent, tr)
	if err != nil {
		return nil, err
	}
	if rec := runJob(ctx, env.client, streamJob{Spec: warmupJob}, nil); !rec.ok() {
		env.close()
		return nil, fmt.Errorf("warm-up job: status %q %s", rec.status.Status, rec.err)
	}
	return env, nil
}

// runService measures fleet-mixed.
func runService(ctx context.Context, c runConfig) (*runReport, error) {
	rep := newRunReport()
	jobs := newStream(c.seed, streamLen)
	var env *serviceEnv
	setup, err := repeatSetup(func() error {
		var err error
		env, err = setupService(ctx, c.dir, nil)
		return err
	}, func() { env.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.details["setup_samples_s"] = setup

	budget := c.seconds
	if c.trace {
		budget /= 2 // the other half replays the same stream traced
	}
	plain := timedStream(ctx, env, jobs, budget, nil)
	if len(plain.recs) == len(jobs) {
		rep.add("the run used up the job stream before its time was over")
	}
	env.close()
	halves := []serviceHalf{plain}
	var tr *trace.Tracer
	if c.trace {
		tr = trace.New(traceSpans)
		tenv, err := setupService(ctx, c.dir, tr)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		halves = append(halves, timedStream(ctx, tenv, jobs, budget, tr))
		tenv.close()
	}

	var all []jobRecord
	for _, h := range halves {
		all = append(all, h.recs...)
		for _, r := range h.recs {
			rep.attempted++
			if !r.ok() {
				rep.failed++
				rep.add(fmt.Sprintf("job %s (%s): status %q failed_runs %d %s",
					r.status.ID, r.job.Spec.Suite, r.status.Status, r.status.FailedRuns, r.err))
			}
		}
	}
	t0 := time.Now()
	problems, lastBits := verifyJobs(ctx, all)
	rep.add(problems...)
	rep.details["verify_s"] = time.Since(t0).Seconds()
	rep.details["docs_equal_after_rounding"] = lastBits

	h := plain
	cpuPerJob, allocPerJob, minstPerCPU := blockRates(h)
	cpus := jobCPUs(h)
	done := float64(len(h.recs) - countFailed(h.recs))
	cpuTail, pct := tail(cpus)
	rep.details["ops"] = "jobs"
	rep.details["jobs"] = len(h.recs)
	rep.details["repeat_share"] = repeatShare(jobsOf(h.recs))
	rep.details["store_served_share"] = storeServedShare(h.recs)
	rep.details["job_cpu_tail"] = map[string]any{"percentile": pct, "samples": len(cpus)}
	rep.details["block_cpu_ms_per_job"] = cpuPerJob
	if !c.trace {
		rep.e2e = map[string]float64{
			"setup_s":              median(setup),
			"sim_minsts_per_cpu_s": median(minstPerCPU),
			"alloc_mb_per_op":      median(allocPerJob),
			"peak_rss_mb":          h.peakRSS,
			"job_cpu_p50_ms":       median(cpus),
			"job_cpu_tail_ms":      cpuTail,
			"cpu_ms_per_job":       median(cpuPerJob),
		}
		return rep, nil
	}

	t := halves[1]
	n := float64(len(t.recs))
	l := rep.layers
	serviceLayerMetrics(l, t)
	// The client's wall-clock view, from the untraced half.
	lat := jobLatencies(h)
	l["serve.job_p50_ms"] = median(lat)
	l["serve.job_tail_ms"], _ = tail(lat)
	l["serve.jobs_per_s"] = ratio(done, h.iv.wall.Seconds())
	l["obs.trace_overhead_frac"] = ratio(ratio(ms(t.iv.cpu), n), ratio(ms(h.iv.cpu), float64(len(h.recs)))) - 1
	l["go.gc_cpu_frac"] = ratio(t.iv.gcCPU, t.iv.cpu.Seconds())
	l["go.gc_cycles"] = float64(t.iv.gcCycles)
	rep.spans = tr
	return rep, nil
}

// serviceLayerMetrics sets the per-layer metrics a traced service phase
// measures: exp counts and run times from the job documents and event
// streams, the store, the journal, the client's view of serve, and the
// fleet's executor and protocol round trips. The simulation path runs
// inside the fleet workers, where the benchmark times no call, so its
// layers report 0 here.
func serviceLayerMetrics(l map[string]float64, t serviceHalf) {
	n := float64(len(t.recs))
	var executed, memHits, diskHits uint64
	var simWalls, submitMS, queueMS, execMS, fetchMS []float64
	refused := 0
	for _, r := range t.recs {
		simWalls = append(simWalls, r.simWalls...)
		submitMS = append(submitMS, ms(r.submit))
		if r.refused {
			refused++
		}
		if !r.ok() {
			continue
		}
		fetchMS = append(fetchMS, ms(r.fetch))
		if e := r.status.Engine; e != nil {
			executed += e.Executed
			memHits += e.MemHits
			diskHits += e.DiskHits
		}
		if r.status.Started != nil && r.status.Finished != nil {
			queueMS = append(queueMS, ms(r.status.Started.Sub(r.status.Created)))
			execMS = append(execMS, ms(r.status.Finished.Sub(*r.status.Started)))
		}
	}
	simTail, _ := tail(simWalls)
	l["exp.sims_executed"] = ratio(float64(executed), n)
	l["exp.memo_hits"] = ratio(float64(memHits), n)
	l["exp.disk_hits"] = ratio(float64(diskHits), n)
	l["exp.sim_p50_ms"] = median(simWalls)
	l["exp.sim_tail_ms"] = simTail
	l["exp.engine_overhead_frac"] = 1 - ratio(sum(simWalls), sum(execMS))
	l["diskcache.get_ms"] = median(t.env.probe.getLatency.values())
	l["diskcache.put_ms"] = median(t.env.probe.putLatency.values())
	l["diskcache.hit_ratio"] = ratio(float64(t.hits), float64(t.gets))
	l["diskcache.bytes"] = float64(t.storeBytes)
	l["journal.appends"] = float64(t.journalAppends)
	l["journal.wal_bytes"] = float64(t.walBytes)
	l["serve.submit_ms"] = median(submitMS)
	l["serve.queue_wait_ms"] = median(queueMS)
	l["serve.execute_ms"] = median(execMS)
	l["serve.fetch_ms"] = median(fetchMS)
	l["serve.refused"] = float64(refused)
	q := t.env.fleetQ
	l["fleet.execute_ms"] = median(t.env.exec.latency.values())
	l["fleet.lease_rt_per_job"] = ratio(float64(q.count("lease")), n)
	l["fleet.results_rt_per_job"] = ratio(float64(q.count("store_get")+q.count("store_put")), n)
	l["fleet.progress_rt_per_job"] = ratio(float64(q.count("progress")), n)
	l["fleet.rt_ms"] = median(q.rt.values())
	l["fleet.lease_wait_ms"] = median(q.lease.values())
	unreached(l, "workload.", "pipeline.", "core.hazards_flagged", "core.tpbuf_queries",
		"mem.hierarchy_", "mem.l1d_misses", "mem.l2_misses", "attack.")
}

// jobLatencies returns each job's wall-clock latency in ms; a failed or
// refused job counts as the whole timed phase, so it misses any latency
// limit.
func jobLatencies(h serviceHalf) []float64 {
	out := make([]float64, len(h.recs))
	for i, r := range h.recs {
		out[i] = ms(r.latency)
		if !r.ok() {
			out[i] = ms(h.iv.wall)
		}
	}
	return out
}

// blockRates returns, for each of the phase's complete stream blocks (see
// blockJobs), the CPU ms and heap MB allocated per job and the simulated
// Minst (the stored results' measure phases plus their fixed warmup) per
// CPU second. Every block holds the same mix of jobs, so a burst of
// contention that covers less than half the blocks does not move their
// medians. A phase too short for one block is taken as a whole.
func blockRates(h serviceHalf) (cpuPerJob, allocPerJob, minstPerCPU []float64) {
	span := func(a, b usage, jobs int) {
		committed := b.committed - a.committed + uint64(b.puts-a.puts)*streamWarmup
		cpuPerJob = append(cpuPerJob, ratio(ms(b.cpu-a.cpu), float64(jobs)))
		allocPerJob = append(allocPerJob, ratio(float64(b.alloc-a.alloc)/1e6, float64(jobs)))
		minstPerCPU = append(minstPerCPU, ratio(float64(committed)/1e6, (b.cpu-a.cpu).Seconds()))
	}
	for i := 0; (i+1)*blockJobs < len(h.marks); i++ {
		span(h.marks[i*blockJobs], h.marks[(i+1)*blockJobs], blockJobs)
	}
	if len(cpuPerJob) == 0 && len(h.recs) > 0 {
		span(h.marks[0], h.marks[len(h.recs)], len(h.recs))
	}
	return cpuPerJob, allocPerJob, minstPerCPU
}

// jobCPUs returns each job's process CPU in ms; a failed or refused job
// counts as the whole timed phase's CPU, so it misses any limit.
func jobCPUs(h serviceHalf) []float64 {
	out := make([]float64, len(h.recs))
	for i, r := range h.recs {
		out[i] = ms(r.cpu)
		if !r.ok() {
			out[i] = ms(h.iv.cpu)
		}
	}
	return out
}

func countFailed(recs []jobRecord) int {
	n := 0
	for _, r := range recs {
		if !r.ok() {
			n++
		}
	}
	return n
}

func jobsOf(recs []jobRecord) []streamJob {
	out := make([]streamJob, len(recs))
	for i, r := range recs {
		out[i] = r.job
	}
	return out
}

// storeServedShare is the share of jobs that executed no simulation: every
// run came from a cache tier.
func storeServedShare(recs []jobRecord) float64 {
	n := 0
	for _, r := range recs {
		if r.ok() && r.status.Engine != nil && r.status.Engine.Executed == 0 {
			n++
		}
	}
	return ratio(float64(n), float64(len(recs)))
}

// canonicalDoc renders a result document without the blocks that
// legitimately differ between executions: the engine's cache-tier counters
// and the build stamp.
func canonicalDoc(r *report.Report) (string, error) {
	c := *r
	c.Build = buildinfo.Info{}
	c.Engine = nil
	b, err := json.Marshal(&c)
	return string(b), err
}

// lastBitsMayDiffer reports whether spec's result document sums three or
// more per-profile terms in completion order (see verifyJobs).
func lastBitsMayDiffer(spec serve.JobSpec) bool {
	return spec.Suite == "icache" && len(spec.Benches) >= 2
}

// roundedDoc re-renders a canonical document with every number rounded to
// 12 significant digits.
func roundedDoc(doc string) (string, error) {
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		return "", err
	}
	var round func(any) any
	round = func(x any) any {
		switch t := x.(type) {
		case float64:
			f, _ := strconv.ParseFloat(strconv.FormatFloat(t, 'g', 12, 64), 64)
			return f
		case []any:
			for i := range t {
				t[i] = round(t[i])
			}
		case map[string]any:
			for k := range t {
				t[k] = round(t[k])
			}
		}
		return x
	}
	b, err := json.Marshal(round(v))
	return string(b), err
}

// verifyJobs checks every completed job's result document against an
// in-process serve.ExecuteSpec of the same spec. It returns the failed
// checks and how many documents matched only after rounding. The suites
// add per-profile overheads in completion order, so with three or more
// terms a document's averages can differ in the last bits between two
// executions of one spec; only icache over two or more profiles (plus its
// stress kernel) sums that many. Such a document is counted when it
// matches after rounding; any other difference fails.
func verifyJobs(ctx context.Context, recs []jobRecord) (problems []string, lastBits int) {
	want := make(map[string]string)
	var specs []serve.JobSpec
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		if k := specKey(r.job.Spec); want[k] == "" {
			want[k] = "pending"
			specs = append(specs, r.job.Spec)
		}
	}
	memo := newMemoStore()
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				rep, _, failed, err := serve.ExecuteSpec(ctx, specs[i], serve.ExecOptions{Cache: memo, SimWorkers: 1}, nil)
				doc := ""
				if err == nil && failed == 0 {
					doc, err = canonicalDoc(rep)
				}
				mu.Lock()
				if err != nil || failed > 0 {
					problems = append(problems, fmt.Sprintf("reference %s: failed runs %d, %v", specKey(specs[i]), failed, err))
				}
				want[specKey(specs[i])] = doc
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		w := want[specKey(r.job.Spec)]
		got, err := canonicalDoc(r.status.Result)
		if err == nil && got == w {
			continue
		}
		if err == nil && lastBitsMayDiffer(r.job.Spec) {
			gr, err1 := roundedDoc(got)
			wr, err2 := roundedDoc(w)
			if err1 == nil && err2 == nil && gr == wr {
				lastBits++
				continue
			}
		}
		problems = append(problems, fmt.Sprintf("job %s: result document differs from in-process ExecuteSpec of %s", r.status.ID, specKey(r.job.Spec)))
	}
	return problems, lastBits
}
