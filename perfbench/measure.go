package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time. Process CPU is the
// throughput denominator because hypervisor steal inflates wall time on
// shared hosts and touches CPU time far less.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports: heap allocation and GC activity.
type runtimeSample struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2), gcCPU: f(3)}
}

// meter brackets a measured interval: wall, process CPU and Go heap
// allocation between start and stop.
type meter struct {
	wall0 time.Time
	cpu0  time.Duration
	rt0   runtimeSample
}

type interval struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64 // heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // seconds
}

func startMeter() meter {
	return meter{wall0: time.Now(), cpu0: cpuTime(), rt0: readRuntime()}
}

func (m meter) stop() interval {
	rt := readRuntime()
	return interval{
		wall:     time.Since(m.wall0),
		cpu:      cpuTime() - m.cpu0,
		alloc:    rt.allocBytes - m.rt0.allocBytes,
		gcCycles: rt.gcCycles - m.rt0.gcCycles,
		gcCPU:    rt.gcCPU - m.rt0.gcCPU,
	}
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total ticks and
// steal ticks. ok is false where /proc/stat is unavailable.
func cpuTicks() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, fld := range fields[1:] {
		v, err := strconv.ParseUint(fld, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// cpuModel returns the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostRecord describes the machine and how contended it was during one
// run, so a noisy run can be explained and snapshots from different
// machines are never compared.
type hostRecord struct {
	StealFrac  float64 `json:"steal_frac"`
	WallS      float64 `json:"wall_s"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
}

// hostWatch measures steal over a run.
type hostWatch struct {
	t0             time.Time
	total0, steal0 uint64
	ok             bool
}

func watchHost() hostWatch {
	total, steal, ok := cpuTicks()
	return hostWatch{t0: time.Now(), total0: total, steal0: steal, ok: ok}
}

func (h hostWatch) record() hostRecord {
	r := hostRecord{
		WallS:      time.Since(h.t0).Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
	if total, steal, ok := cpuTicks(); ok && h.ok && total > h.total0 {
		r.StealFrac = float64(steal-h.steal0) / float64(total-h.total0)
	}
	return r
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailBeyond is how many samples must lie beyond the reported tail.
const minTailBeyond = 10

// tail returns the highest percentile of xs that has at least
// minTailBeyond samples beyond it: the sample at sorted index
// n-minTailBeyond-1, and that index's percentile (100·(n-10)/n). With too
// few samples for any such percentile it falls back to the maximum and
// reports percentile 100 — callers state the sample count beside it.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= minTailBeyond {
		return s[n-1], 100
	}
	return s[n-minTailBeyond-1], 100 * float64(n-minTailBeyond) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
