package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"

	"conspec/internal/serve"
	"conspec/internal/workload"
)

// streamJob is one submission of fleet-mixed's job stream.
type streamJob struct {
	Spec serve.JobSpec
	// Repeat marks a spec submitted earlier in the stream: its runs are
	// served from the result store instead of simulated.
	Repeat bool
}

// jobClass is a kind of small single-suite job. The classes cost about
// the same to simulate (four to six runs per profile), so the mix, not
// the luck of the draw, sets the latency distribution.
type jobClass struct {
	suite    string
	defenses []string
}

var jobClasses = []jobClass{
	{suite: "fig5"},
	{suite: "lru"},
	{suite: "icache"},
	{suite: "defenses", defenses: []string{"baseline", "cachehit+tpbuf"}},
}

// streamWarmup is the warmup budget of every stream job. Holding it fixed
// lets the benchmark count simulated instructions exactly from the
// measure-phase results the store receives.
const streamWarmup = 2_000

// measureBudgets are the measure budgets fresh specs draw from: 8k to 12k
// in steps of 50. Kind k takes every kinds-th budget starting at the k-th,
// so no two kinds share a budget and a fresh spec never shares a run with
// an earlier spec of another kind: store hits come from repeats alone.
func measureBudgets(k, kinds int) []uint64 {
	var out []uint64
	for i, m := 0, uint64(8_000); m <= 12_000; i, m = i+1, m+50 {
		if i%kinds == k {
			out = append(out, m)
		}
	}
	return out
}

// Each block of the stream holds one fresh job per (class, 1 or 2
// profiles) kind plus blockRepeats repeats. Repeats are 5 of every 13
// jobs, not exactly half: with a half/half split the median would sit on
// the boundary between the fast repeat cluster and the slow fresh one and
// jump between them from run to run.
const blockRepeats = 5

// blockJobs is the length of a stream block: one fresh job of each of the
// 2·len(jobClasses) kinds plus the repeats.
var blockJobs = 2*len(jobClasses) + blockRepeats

// repeatLag keeps a repeat's original at least this many jobs back, so
// even with several closed-loop clients the original has completed and
// the repeat reads the store rather than racing the first execution.
const repeatLag = 4

// newStream returns the first n jobs of the stream for seed. The same seed
// always gives the same jobs. n must stay within what the spec universe
// holds (streamLen does); newStream panics otherwise.
func newStream(seed uint64, n int) []streamJob {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	kinds := 2 * len(jobClasses)
	gens := make([]*kindGen, kinds)
	for k := range gens {
		gens[k] = &kindGen{class: jobClasses[k%len(jobClasses)], size: 1 + k/len(jobClasses),
			budgets: measureBudgets(k, kinds), r: r, used: make(map[string]bool)}
	}
	var fresh []serve.JobSpec // first occurrences, in stream order
	var out []streamJob
	for len(out) < n {
		// One block: every kind once, plus repeats at seeded slots.
		slots := make([]int, 0, kinds+blockRepeats) // kind index, or -1 for a repeat
		for k := 0; k < kinds; k++ {
			slots = append(slots, k)
		}
		for i := 0; i < blockRepeats; i++ {
			slots = append(slots, -1)
		}
		r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, k := range slots {
			if len(out) == n {
				break
			}
			lagged := len(fresh) - repeatLag
			if k < 0 && lagged > 0 {
				out = append(out, streamJob{Spec: fresh[r.IntN(lagged)], Repeat: true})
				continue
			}
			if k < 0 {
				k = r.IntN(kinds)
			}
			spec := gens[k].next()
			fresh = append(fresh, spec)
			out = append(out, streamJob{Spec: spec})
		}
	}
	return out
}

// kindGen deals the fresh specs of one kind: one job class over size
// profiles. Profiles come in rounds, each a seeded permutation of all of
// them taken size at a time, so over any stretch of the stream every
// profile appears about equally often and a run's cost hardly depends on
// the seed. Each spec takes the first measure budget, in seeded order,
// that its profile set has not used, so no fresh spec repeats an earlier
// one.
type kindGen struct {
	class   jobClass
	size    int
	budgets []uint64
	r       *rand.Rand
	round   [][]string // the current round's remaining profile sets
	used    map[string]bool
}

func (g *kindGen) next() serve.JobSpec {
	if len(g.round) == 0 {
		names := workload.Names()
		idx := g.r.Perm(len(names))
		for i := 0; i+g.size <= len(idx); i += g.size {
			set := append([]int(nil), idx[i:i+g.size]...)
			sort.Ints(set) // one order per set of profiles
			var benches []string
			for _, x := range set {
				benches = append(benches, names[x])
			}
			g.round = append(g.round, benches)
		}
	}
	benches := g.round[0]
	g.round = g.round[1:]
	for _, i := range g.r.Perm(len(g.budgets)) {
		spec := serve.JobSpec{Suite: g.class.suite, Benches: benches,
			Defenses: g.class.defenses, Warmup: streamWarmup, Measure: g.budgets[i]}
		if k := specKey(spec); !g.used[k] {
			g.used[k] = true
			return spec
		}
	}
	panic("perfbench: job stream exhausted its spec universe")
}

// repeatShare returns the share of jobs that repeat an earlier spec.
func repeatShare(jobs []streamJob) float64 {
	n := 0
	for _, j := range jobs {
		if j.Repeat {
			n++
		}
	}
	return ratio(float64(n), float64(len(jobs)))
}

// specKey identifies a spec for repeat detection and reference lookup.
func specKey(s serve.JobSpec) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	return string(b)
}
