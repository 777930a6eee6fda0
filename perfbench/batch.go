package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"conspec/internal/attack"
	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/exp"
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// batchWorkload is one in-process experiment sweep. A pass runs the sweep
// once over the profile set on a fresh exp.Runner (one simulation worker,
// so the cycle loop owns a core and the timing is not a scheduling
// lottery); the timed phase repeats passes.
type batchWorkload struct {
	spec     exp.RunSpec
	profiles []string
	// configs lists the distinct security configurations one pass
	// simulates per profile; the traced path replays exactly these.
	configs []pipeline.SecurityConfig
	// defenses selects Runner.Defenses (every registered backend plus its
	// V1 verdict) instead of Runner.Evaluation.
	defenses bool
	// golden is the digest of one pass's simulation results.
	golden string
}

// fig5Profiles is the fixed Figure 5 profile subset: six of the 22 keep a
// pass near four CPU-seconds, so a run holds several passes.
var fig5Profiles = []string{"astar", "bzip2", "gcc", "lbm", "mcf", "sjeng"}

// fig5Sweep is the paper's Figure 5 evaluation (Origin, Baseline,
// Cache-hit and Cache-hit+TPBuf over a fixed profile set) at the default
// 20k/120k budget. About 90% of its CPU goes to CPU.RunFor, so it loads the
// cycle loop and the core/mem/branch kernels; workload and machine set-up
// are minor, which makes it the near-bypass for set-up optimisations.
func fig5Sweep() batchWorkload {
	var cfgs []pipeline.SecurityConfig
	for _, m := range core.Mechanisms {
		cfgs = append(cfgs, pipeline.SecurityConfig{Mechanism: m})
	}
	return batchWorkload{spec: exp.DefaultSpec(), profiles: fig5Profiles,
		configs: cfgs, golden: goldenFig5Sweep}
}

// defensesSetup is Runner.Defenses over every registered backend and all
// 22 profiles at a short 2k/10k budget, with each backend's V1 verdict.
// Every simulation rebuilds the workload image and the machine, so
// workload/isa/mem construction and GC carry a large share of its CPU:
// this is the workload on which building a workload's immutable set-up
// once would show.
func defensesSetup() batchWorkload {
	spec := exp.DefaultSpec()
	spec.Warmup, spec.Measure = 2_000, 10_000
	cfgs := []pipeline.SecurityConfig{{Mechanism: core.Origin}}
	for _, d := range core.Defenses() {
		s := exp.SecFor(d)
		dup := false
		for _, c := range cfgs {
			dup = dup || c == s
		}
		if !dup {
			cfgs = append(cfgs, s)
		}
	}
	return batchWorkload{spec: spec, profiles: workload.Names(), configs: cfgs,
		defenses: true, golden: goldenDefensesSetup}
}

// attackCore is the machine the V1 proof of concept runs on: the paper
// core with the slimmed L2/L3 the attack suites use by default.
func attackCore() config.Core {
	cfg := config.PaperCore()
	cfg.Mem.L2Size = 256 * 1024
	cfg.Mem.L3Size = 1024 * 1024
	return cfg
}

// fingerprint renders every simulated statistic of a result. The stall
// skipper's meta-counters (Stages) are left out: they describe the
// simulator, not the machine, and may change with simulator speed-ups.
func fingerprint(r pipeline.Result) string {
	return fmt.Sprintf("c=%d n=%d h=%t o=%s br=%+v f=%+v sm=%+v tp=%+v l1i=%+v l1d=%+v l2=%+v l3=%+v sq=%d mv=%d ub=%d ss=%d fs=%d dt=%d",
		r.Cycles, r.Committed, r.Halted, r.Outcome, r.Branch, r.Filter, r.SecMat, r.TPBuf,
		r.L1I, r.L1D, r.L2, r.L3, r.Squashes, r.MemViolations,
		r.UnresolvedBranchAtDispatch, r.StoreSetStalls, r.FetchStallsICacheFilter, r.DTLBFilterBlocks)
}

// digest hashes the multiset of result fingerprints, independent of the
// order the simulations completed in.
func digest(results []pipeline.Result) string {
	fps := make([]string, len(results))
	for i, r := range results {
		fps[i] = fingerprint(r)
	}
	sort.Strings(fps)
	h := sha256.Sum256([]byte(strings.Join(fps, "\n")))
	return hex.EncodeToString(h[:])
}

// passOrder is the seeded order a pass submits its profiles in. The seed
// only permutes the order: every pass does the same work, so throughput
// does not depend on the seed.
func passOrder(profiles []string, seed uint64, pass int) []string {
	out := append([]string(nil), profiles...)
	r := rand.New(rand.NewPCG(seed, uint64(pass)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// passResult is one pass of a batch workload.
type passResult struct {
	iv        interval
	sims      int // executed simulations
	submitted int // simulations submitted, cache hits included
	attacks   int
	committed uint64 // committed instructions, warmup included
	digest    string
	walls     []float64 // per-simulation wall, ms
	cpus      []float64 // per-simulation process CPU, ms
	runErrors int
	problems  []string
	// expectBlock is each backend's documented V1 expectation (defenses).
	expectBlock map[string]bool
}

// runnerPass runs one pass through the public exp.Runner API.
func (b batchWorkload) runnerPass(ctx context.Context, names []string) passResult {
	var ps passResult
	// A fresh store never hits within a pass (the Runner's memory tier
	// catches duplicates first), so it only records the executed results.
	store := newMemoStore()
	// With one simulation worker the process runs one simulation at a
	// time, so the process CPU between its run-start and run-done events
	// is that simulation's CPU (with the GC work it causes).
	var simCPU0 time.Duration
	r := exp.NewRunner(exp.RunnerOptions{Workers: 1, Cache: store, OnEvent: func(ev exp.ProgressEvent) {
		switch ev.Phase {
		case exp.PhaseRunStart:
			simCPU0 = cpuTime()
		case exp.PhaseRunDone:
			ps.walls = append(ps.walls, ms(ev.Wall))
			ps.cpus = append(ps.cpus, ms(cpuTime()-simCPU0))
		}
	}})
	m := startMeter()
	var err error
	if b.defenses {
		var res *exp.DefensesResult
		res, err = r.Defenses(ctx, b.spec, names, nil, attackCore())
		if res != nil {
			ps.expectBlock = make(map[string]bool)
			for _, row := range res.Rows {
				ps.attacks++
				ps.expectBlock[row.Name] = row.ExpectBlock
				if row.Leaked == row.ExpectBlock {
					ps.problems = append(ps.problems, fmt.Sprintf("defenses: backend %s: V1 leaked=%t, documented expectation blocks=%t",
						row.Name, row.Leaked, row.ExpectBlock))
				}
			}
		}
	} else {
		_, err = r.Evaluation(ctx, b.spec, names)
	}
	ps.iv = m.stop()
	if err != nil {
		ps.problems = append(ps.problems, fmt.Sprintf("pass: %v", err))
	}
	st := r.Stats()
	ps.sims = int(st.Executed)
	ps.submitted = int(st.Submitted())
	ps.runErrors = len(r.Errors())
	for _, e := range r.Errors() {
		ps.problems = append(ps.problems, fmt.Sprintf("run %s / %s: %s", e.Benchmark, e.Mechanism, e.Outcome))
	}
	results := store.results()
	for _, res := range results {
		ps.committed += res.Committed + b.spec.Warmup
	}
	ps.digest = digest(results)
	return ps
}

// simLayers accumulates the traced path's per-simulation measurements.
type simLayers struct {
	generateMS, loadMS, loadAllocMB, pages    []float64
	newMS, newAllocMB, hierMS, hierAllocMB    []float64
	warmupMS, measureMS                       []float64
	v1MS                                      []float64
	runNS, cycles, skipped, runMallocs        float64
	passCycles, passCommitted, passHazards    uint64
	passTPBufQueries, passL1DMiss, passL2Miss uint64
}

// metrics sets the per-layer metrics the step-by-step path measures.
func (sl *simLayers) metrics(l map[string]float64) {
	l["workload.generate_ms"] = median(sl.generateMS)
	l["workload.load_ms"] = median(sl.loadMS)
	l["workload.load_alloc_mb"] = median(sl.loadAllocMB)
	l["workload.image_pages"] = median(sl.pages)
	l["pipeline.new_ms"] = median(sl.newMS)
	l["pipeline.new_alloc_mb"] = median(sl.newAllocMB)
	l["pipeline.warmup_ms"] = median(sl.warmupMS)
	l["pipeline.measure_ms"] = median(sl.measureMS)
	l["pipeline.ns_per_cycle"] = ratio(sl.runNS, sl.cycles)
	l["pipeline.skip_frac"] = ratio(sl.skipped, sl.cycles)
	l["pipeline.mallocs_per_kcycle"] = ratio(sl.runMallocs, sl.cycles/1000)
	l["pipeline.cycles"] = float64(sl.passCycles)
	l["pipeline.committed"] = float64(sl.passCommitted)
	l["core.hazards_flagged"] = float64(sl.passHazards)
	l["core.tpbuf_queries"] = float64(sl.passTPBufQueries)
	l["mem.hierarchy_new_ms"] = median(sl.hierMS)
	l["mem.hierarchy_alloc_mb"] = median(sl.hierAllocMB)
	l["mem.l1d_misses"] = float64(sl.passL1DMiss)
	l["mem.l2_misses"] = float64(sl.passL2Miss)
	l["attack.v1_ms"] = median(sl.v1MS) // 0 where the pass runs no attack
}

// timedCall runs fn inside a span named name under parent and returns its
// wall time and the heap bytes and objects it allocated.
func timedCall(tr *trace.Tracer, parent trace.SpanID, name string, fn func()) (time.Duration, uint64, uint64) {
	sp := tr.Begin(parent, name)
	rt0 := readRuntime()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rt := readRuntime()
	tr.End(sp)
	return d, rt.allocBytes - rt0.allocBytes, rt.allocObjects - rt0.allocObjects
}

// stepSim drives one simulation through the public functions step by
// step — Generate, Load, NewHierarchy+New (what NewWithMemory does),
// RunFor(warmup), ResetStats, RunFor(measure) — with a span around each,
// mirroring exp.RunWorkloadObs so the result is identical.
func stepSim(tr *trace.Tracer, parent trace.SpanID, p workload.Profile, spec exp.RunSpec, sl *simLayers) (pipeline.Result, error) {
	sp := tr.Begin(parent, "sim:"+p.Name)
	defer tr.End(sp)
	tr.Annotate(sp, "mechanism", spec.Sec.Mechanism.String())
	maxCycles := spec.MaxCycles
	if maxCycles == 0 {
		maxCycles = 400 * (spec.Warmup + spec.Measure)
	}
	cfg := spec.Core
	cfg.Mem.L1DUpdate = spec.L1DUpdate

	var w *workload.Workload
	var err error
	d, _, _ := timedCall(tr, sp, "workload.generate", func() { w, err = workload.Generate(p) })
	if err != nil {
		return pipeline.Result{}, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	sl.generateMS = append(sl.generateMS, ms(d))

	var backing *isa.FlatMem
	d, alloc, _ := timedCall(tr, sp, "workload.load", func() {
		backing = isa.NewFlatMem()
		w.Load(backing)
	})
	sl.loadMS = append(sl.loadMS, ms(d))
	sl.loadAllocMB = append(sl.loadAllocMB, float64(alloc)/1e6)
	sl.pages = append(sl.pages, float64(backing.Pages()))

	newSpan := tr.Begin(sp, "pipeline.new")
	rt0, t0 := readRuntime(), time.Now()
	var hier *mem.Hierarchy
	hd, halloc, _ := timedCall(tr, newSpan, "mem.new_hierarchy", func() { hier = mem.NewHierarchy(cfg.Mem, backing) })
	cpu := pipeline.New(cfg, spec.Sec, hier)
	nd, rt := time.Since(t0), readRuntime()
	tr.End(newSpan)
	sl.newMS = append(sl.newMS, ms(nd))
	sl.newAllocMB = append(sl.newAllocMB, float64(rt.allocBytes-rt0.allocBytes)/1e6)
	sl.hierMS = append(sl.hierMS, ms(hd))
	sl.hierAllocMB = append(sl.hierAllocMB, float64(halloc)/1e6)

	cpu.SetPC(w.Entry)
	var wres, res pipeline.Result
	wd, _, wm := timedCall(tr, sp, "pipeline.warmup", func() { wres = cpu.RunFor(spec.Warmup, maxCycles) })
	if !wres.Outcome.Completed() {
		return wres, fmt.Errorf("warmup %s / %s ended %s", p.Name, spec.Sec.Mechanism, wres.Outcome)
	}
	timedCall(tr, sp, "pipeline.reset_stats", cpu.ResetStats)
	md, _, mm := timedCall(tr, sp, "pipeline.measure", func() { res = cpu.RunFor(spec.Measure, maxCycles) })
	if !res.Outcome.Completed() {
		return res, fmt.Errorf("measure %s / %s ended %s", p.Name, spec.Sec.Mechanism, res.Outcome)
	}
	sl.warmupMS = append(sl.warmupMS, ms(wd))
	sl.measureMS = append(sl.measureMS, ms(md))
	sl.runNS += float64(wd + md)
	sl.cycles += float64(wres.Cycles + res.Cycles)
	sl.skipped += float64(wres.Stages.SkippedCycles + res.Stages.SkippedCycles)
	sl.runMallocs += float64(wm + mm)
	return res, nil
}

// tracedPass replays one pass of the workload step by step with spans,
// so its digest must equal the Runner's.
func (b batchWorkload) tracedPass(ctx context.Context, tr *trace.Tracer, names []string, sl *simLayers, expectBlock map[string]bool) passResult {
	var ps passResult
	root := tr.Begin(trace.NoSpan, "pass")
	defer tr.End(root)
	m := startMeter()
	var results []pipeline.Result
	for _, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			ps.problems = append(ps.problems, fmt.Sprintf("unknown profile %q", name))
			continue
		}
		for _, sec := range b.configs {
			if ctx.Err() != nil {
				ps.problems = append(ps.problems, ctx.Err().Error())
				return ps
			}
			spec := b.spec
			spec.Sec = sec
			t0 := time.Now()
			res, err := stepSim(tr, root, p, spec, sl)
			ps.submitted++
			if err != nil {
				ps.runErrors++
				ps.problems = append(ps.problems, err.Error())
				continue
			}
			ps.walls = append(ps.walls, ms(time.Since(t0)))
			ps.sims++
			ps.committed += res.Committed + b.spec.Warmup
			results = append(results, res)
		}
	}
	if b.defenses {
		cfg := attackCore()
		for _, d := range core.Defenses() {
			var o attack.Outcome
			dur, _, _ := timedCall(tr, root, "attack.v1:"+d.Name(), func() {
				o = attack.V1FlushReload(cfg).Run(cfg, exp.SecFor(d))
			})
			sl.v1MS = append(sl.v1MS, ms(dur))
			ps.attacks++
			if want, ok := expectBlock[d.Name()]; !ok || o.Leaked == want {
				ps.problems = append(ps.problems, fmt.Sprintf("traced V1 under %s: leaked=%t", d.Name(), o.Leaked))
			}
		}
	}
	ps.iv = m.stop()
	ps.digest = digest(results)
	if sl.passCycles == 0 {
		for _, r := range results {
			sl.passCycles += r.Cycles
			sl.passCommitted += r.Committed
			sl.passHazards += r.SecMat.HazardsFlagged
			sl.passTPBufQueries += r.TPBuf.Queries
			sl.passL1DMiss += r.L1D.Misses
			sl.passL2Miss += r.L2.Misses
		}
	}
	return ps
}

// warmBatch is one set-up of a batch workload: resolve the profiles and
// run one simulation of the first, so code paths and the heap are warm
// before timing starts.
func (b batchWorkload) warmBatch(ctx context.Context) error {
	for _, n := range b.profiles {
		if _, ok := workload.ByName(n); !ok {
			return fmt.Errorf("unknown profile %q", n)
		}
	}
	p, _ := workload.ByName(b.profiles[0])
	w, err := workload.Generate(p)
	if err != nil {
		return err
	}
	res, err := exp.RunWorkloadCtx(ctx, w, b.spec, nil)
	if err != nil {
		return err
	}
	if !res.Outcome.Completed() {
		return fmt.Errorf("warm-up simulation ended %s", res.Outcome)
	}
	return nil
}

// passes runs passes with run until the next one would end past budget
// (always at least one), and returns them.
func passes(budget time.Duration, run func(i int) passResult) []passResult {
	var out []passResult
	start := time.Now()
	for i := 0; ; i++ {
		ps := run(i)
		out = append(out, ps)
		if len(ps.problems) > 0 || time.Since(start)+ps.iv.wall > budget {
			return out
		}
	}
}

// runBatch measures a batch workload.
func runBatch(ctx context.Context, c runConfig, b batchWorkload) (*runReport, error) {
	rep := newRunReport()
	setup, err := repeatSetup(func() error { return b.warmBatch(ctx) }, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.details["setup_samples_s"] = setup

	budget := c.seconds
	if c.trace {
		budget /= 2 // the other half replays the same passes traced
	}
	plain := passes(budget, func(i int) passResult {
		return b.runnerPass(ctx, passOrder(b.profiles, c.seed, i))
	})
	var walls, cpus, tput, cpuPerOp, allocPerOp, cpuPerInst []float64
	var simWall, passWall float64
	var executed, submitted, attacks int
	for _, ps := range plain {
		rep.add(ps.problems...)
		if ps.digest != b.golden {
			rep.add(fmt.Sprintf("digest %s, want %s", ps.digest, b.golden))
		}
		rep.attempted += ps.submitted + ps.attacks
		rep.failed += ps.runErrors
		walls = append(walls, ps.walls...)
		cpus = append(cpus, ps.cpus...)
		tput = append(tput, ratio(float64(ps.committed)/1e6, ps.iv.cpu.Seconds()))
		cpuPerOp = append(cpuPerOp, ratio(ms(ps.iv.cpu), float64(ps.sims)))
		allocPerOp = append(allocPerOp, ratio(float64(ps.iv.alloc)/1e6, float64(ps.sims)))
		cpuPerInst = append(cpuPerInst, ratio(ms(ps.iv.cpu), float64(ps.committed)))
		simWall += sum(ps.walls)
		passWall += ms(ps.iv.wall)
		executed += ps.sims
		submitted += ps.submitted
		attacks += ps.attacks
	}
	cpuTail, pct := tail(cpus)
	rep.details["passes"] = len(plain)
	rep.details["pass_cpu_ms_per_op"] = cpuPerOp
	rep.details["ops"] = "simulations"
	rep.details["job_cpu_tail"] = map[string]any{"percentile": pct, "samples": len(cpus)}
	if !c.trace {
		rep.e2e = map[string]float64{
			"setup_s":              median(setup),
			"sim_minsts_per_cpu_s": median(tput),
			"alloc_mb_per_op":      median(allocPerOp),
			"peak_rss_mb":          peakRSSMB(),
			"job_cpu_p50_ms":       median(cpus),
			"job_cpu_tail_ms":      cpuTail,
			"cpu_ms_per_job":       median(cpuPerOp),
		}
		return rep, nil
	}

	tr := trace.New(traceSpans)
	var sl simLayers
	expect := plain[0].expectBlock
	traced := passes(budget, func(i int) passResult {
		return b.tracedPass(ctx, tr, passOrder(b.profiles, c.seed, i), &sl, expect)
	})
	var tracedCPUPerInst []float64
	var gcCPU, cpuSecs float64
	var gcCycles uint64
	for _, ps := range traced {
		rep.add(ps.problems...)
		rep.attempted += ps.submitted + ps.attacks
		rep.failed += ps.runErrors
		if ps.digest != plain[0].digest {
			rep.add(fmt.Sprintf("traced digest %s differs from the Runner's %s", ps.digest, plain[0].digest))
		}
		tracedCPUPerInst = append(tracedCPUPerInst, ratio(ms(ps.iv.cpu), float64(ps.committed)))
		gcCPU += ps.iv.gcCPU
		cpuSecs += ps.iv.cpu.Seconds()
		gcCycles += ps.iv.gcCycles
	}
	simTail, _ := tail(walls)
	l := rep.layers
	sl.metrics(l)
	unreached(l, "diskcache.", "journal.appends", "journal.wal_bytes", "serve.", "fleet.")
	l["exp.sims_executed"] = ratio(float64(executed), float64(len(plain)))
	l["exp.memo_hits"] = ratio(float64(submitted-executed), float64(len(plain)))
	l["exp.disk_hits"] = 0 // batch workloads run without a result store
	l["exp.sim_p50_ms"] = median(walls)
	l["exp.sim_tail_ms"] = simTail
	// A defenses pass also runs the V1 attacks, which are not simulations
	// the engine schedules; their traced time is taken out of the pass.
	l["exp.engine_overhead_frac"] = 1 - ratio(simWall, passWall-float64(attacks)*median(sl.v1MS))
	l["obs.trace_overhead_frac"] = ratio(median(tracedCPUPerInst), median(cpuPerInst)) - 1
	l["go.gc_cpu_frac"] = ratio(gcCPU, cpuSecs)
	l["go.gc_cycles"] = ratio(float64(gcCycles), float64(len(traced)))
	rep.spans = tr
	return rep, nil
}
