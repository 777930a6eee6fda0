// Command perfbench is the repository's benchmark. It drives the public
// APIs of exp, serve, serve/client, serve/journal, diskcache and fleet from
// one process, checks every output it measures, and prints one JSON result
// line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) times the calls into each layer with spans recorded from
// this package, writes them as Chrome trace JSON, and reports the
// per-layer metrics. perfbench/run.sh builds and runs it from a checkout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"conspec/internal/obs/trace"
)

// The stream seed used when --seed is absent, and a seed held out from
// all tuning: a claimed gain must also hold on heldOutSeed.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// traceSpans is the span capacity of a traced run's tracer; spans beyond
// it are dropped and counted in the run's details.
const traceSpans = 1 << 15

// A run sets its workload up at least setupReps times and for at least
// setupSpan; setup_s is the median of their process CPU times. One set-up
// lasts 0.02-0.2 s, so a short burst of contention would cover all samples
// of a smaller window.
const (
	setupReps = 15
	setupSpan = 2 * time.Second
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory inside the checkout
}

// workloads maps each workload name to the function that measures it.
var workloads = map[string]func(context.Context, runConfig) (*runReport, error){
	// Figure 5 at the default budget: loads the cycle loop and the
	// core/mem/branch kernels; bypasses workload and machine set-up.
	"fig5-sweep": func(ctx context.Context, c runConfig) (*runReport, error) {
		return runBatch(ctx, c, fig5Sweep())
	},
	// The defense matrix at a short budget: loads workload/isa/mem
	// construction and GC, which every simulation repeats.
	"defenses-setup": func(ctx context.Context, c runConfig) (*runReport, error) {
		return runBatch(ctx, c, defensesSetup())
	},
	// A seeded job stream through serve, journal fsync, the queue, a fleet
	// coordinator (leases, heartbeats, its diskcache result store) and two
	// workers, each an exp.Runner: loads every service layer.
	"fleet-mixed": runService,
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; every workload reports all of
// them. For the batch workloads an operation ("job") is one simulation,
// for fleet-mixed one submitted job. Job cost is process CPU time, not
// wall time: on a shared host, steal moves wall time from run to run by
// more than any useful bound, so wall-clock latency is reported per layer
// (exp.sim_*_ms, serve.job_*_ms) and not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minsts_per_cpu_s", "Minst/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"job_cpu_p50_ms", "ms"},
	{"job_cpu_tail_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// reach reports an explicit 0 (see unreached).
var perLayer = []metricDef{
	{"workload.generate_ms", "ms"},
	{"workload.load_ms", "ms"},
	{"workload.load_alloc_mb", "MB"},
	{"workload.image_pages", "count"},
	{"pipeline.new_ms", "ms"},
	{"pipeline.new_alloc_mb", "MB"},
	{"pipeline.warmup_ms", "ms"},
	{"pipeline.measure_ms", "ms"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.skip_frac", "ratio"},
	{"pipeline.mallocs_per_kcycle", "count"},
	{"pipeline.cycles", "count"},
	{"pipeline.committed", "count"},
	{"core.secmat_dispatch_ns", "ns"},
	{"core.secmat_hazard_ns", "ns"},
	{"core.tpbuf_query_ns", "ns"},
	{"core.hazards_flagged", "count"},
	{"core.tpbuf_queries", "count"},
	{"mem.hierarchy_new_ms", "ms"},
	{"mem.hierarchy_alloc_mb", "MB"},
	{"mem.cache_access_ns", "ns"},
	{"mem.l1d_misses", "count"},
	{"mem.l2_misses", "count"},
	{"attack.v1_ms", "ms"},
	{"exp.sims_executed", "count"},
	{"exp.memo_hits", "count"},
	{"exp.disk_hits", "count"},
	{"exp.sim_p50_ms", "ms"},
	{"exp.sim_tail_ms", "ms"},
	{"exp.engine_overhead_frac", "ratio"},
	{"diskcache.get_ms", "ms"},
	{"diskcache.put_ms", "ms"},
	{"diskcache.hit_ratio", "ratio"},
	{"diskcache.bytes", "bytes"},
	{"journal.append_p50_ms", "ms"},
	{"journal.append_tail_ms", "ms"},
	{"journal.appends", "count"},
	{"journal.wal_bytes", "bytes"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.execute_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.refused", "count"},
	{"serve.job_p50_ms", "ms"},
	{"serve.job_tail_ms", "ms"},
	{"serve.jobs_per_s", "1/s"},
	{"fleet.execute_ms", "ms"},
	{"fleet.lease_rt_per_job", "count"},
	{"fleet.results_rt_per_job", "count"},
	{"fleet.progress_rt_per_job", "count"},
	{"fleet.rt_ms", "ms"},
	{"fleet.lease_wait_ms", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_cycles", "count"},
	{"host.steal_frac", "ratio"},
	{"host.wall_s", "s"},
}

// runReport is what a workload's measuring function returns.
type runReport struct {
	attempted, failed int
	problems          []string           // failed correctness checks
	e2e               map[string]float64 // untraced runs
	layers            map[string]float64 // traced runs
	details           map[string]any     // printed beside the result
	spans             *trace.Tracer      // traced runs
}

func newRunReport() *runReport {
	return &runReport{layers: make(map[string]float64), details: make(map[string]any)}
}

func (r *runReport) add(problems ...string) { r.problems = append(r.problems, problems...) }

// unreached sets every per-layer metric whose name starts with one of
// prefixes to 0: the workload does not reach that layer.
func unreached(l map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				l[d.name] = 0
			}
		}
	}
}

// repeatSetup runs setup at least setupReps times and for at least
// setupSpan, and returns the process CPU seconds of each. CPU time, like
// the other end-to-end metrics, is what steal on a shared host inflates
// least; it still counts all work moved into set-up. Before each repeat
// it calls teardown (if not nil) to undo the previous set-up; neither
// teardown nor process start-up is part of any sample. A garbage
// collection before each sample starts every set-up from the same heap, so
// whether a collection falls inside it does not depend on the previous one.
func repeatSetup(setup func() error, teardown func()) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < setupReps || time.Since(start) < setupSpan {
		if len(out) > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		c0 := cpuTime()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, (cpuTime() - c0).Seconds())
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for stores, journals and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := watchHost()
	c := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, dir: *dir}
	rep, err := drive(ctx, c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs, values := endToEnd, rep.e2e
	if c.trace {
		defs, values = perLayer, rep.layers
		for k, v := range kernelProbes() {
			values[k] = v
		}
		p50, tl, err := journalProbe(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: journal probe: %v\n", err)
			return 1
		}
		values["journal.append_p50_ms"], values["journal.append_tail_ms"] = p50, tl
		path := filepath.Join(*dir, "trace-"+*name+".json")
		self, err := writeTrace(rep.spans, path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: trace: %v\n", err)
			return 1
		}
		_, dropped := rep.spans.Stats()
		rep.details["trace_file"] = path
		rep.details["self_ms"] = self
		rep.details["spans_dropped"] = dropped
	}
	hr := host.record()
	if c.trace {
		values["host.steal_frac"], values["host.wall_s"] = hr.StealFrac, hr.WallS
	}

	out := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metric)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			rep.add("metric " + d.name + " was not measured")
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		rep.add("no operation was attempted")
	}
	info, _ := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "trace": *traceFlag,
		"host": hr, "details": rep.details})
	fmt.Fprintln(stdout, string(info))
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		out.Correct = false
		out.Metrics = map[string]metric{}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeTrace writes the tracer's spans as Chrome trace JSON to path and
// returns the total self time per span name (its duration minus the part
// its children cover), with per-item suffixes ("sim:astar") folded.
func writeTrace(tr *trace.Tracer, path string) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return selfTimes(buf.Bytes())
}

// selfTimes folds a Chrome trace into self milliseconds per span name.
func selfTimes(chrome []byte) (map[string]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // µs
			Args struct {
				ID     int `json:"span_id"`
				Parent int `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		return nil, err
	}
	name := make(map[int]string)
	self := make(map[int]float64)
	for _, ev := range doc.TraceEvents {
		n, _, _ := strings.Cut(ev.Name, ":")
		name[ev.Args.ID] = n
		self[ev.Args.ID] += ev.Dur
		if ev.Args.Parent != 0 {
			self[ev.Args.Parent] -= ev.Dur
		}
	}
	out := make(map[string]float64)
	for id, us := range self {
		if n, ok := name[id]; ok {
			out[n] += us / 1e3
		}
	}
	return out, nil
}
