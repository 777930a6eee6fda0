package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"conspec/internal/workload"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	a, b := newStream(7, 300), newStream(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	if reflect.DeepEqual(a, newStream(8, 300)) {
		t.Fatal("different seeds gave the same stream")
	}
	if !reflect.DeepEqual(a[:100], newStream(7, 100)) {
		t.Fatal("a shorter stream is not a prefix of a longer one")
	}
}

func TestStreamRepeatShareAndLag(t *testing.T) {
	jobs := newStream(1, streamLen)
	share := repeatShare(jobs)
	want := float64(blockRepeats) / float64(blockJobs)
	if share < want-0.02 || share > want+0.02 {
		t.Fatalf("repeat share %.3f, want about %.3f", share, want)
	}
	seen := make(map[string]int) // spec -> index among fresh jobs
	fresh := 0
	kindOf := make(map[uint64]string) // measure budget -> kind using it
	for i, j := range jobs {
		k := specKey(j.Spec)
		first, ok := seen[k]
		if j.Repeat != ok {
			t.Fatalf("job %d: repeat=%t but seen before=%t", i, j.Repeat, ok)
		}
		if ok && fresh-first <= repeatLag {
			t.Fatalf("job %d repeats a spec only %d fresh jobs back", i, fresh-first)
		}
		if !ok {
			seen[k] = fresh
			fresh++
		}
		kind := fmt.Sprint(j.Spec.Suite, len(j.Spec.Benches))
		if k, ok := kindOf[j.Spec.Measure]; ok && k != kind {
			t.Fatalf("job %d: kinds %s and %s share measure budget %d", i, k, kind, j.Spec.Measure)
		}
		kindOf[j.Spec.Measure] = kind
		if j.Spec.Warmup != streamWarmup {
			t.Fatalf("job %d: warmup %d, want %d", i, j.Spec.Warmup, streamWarmup)
		}
	}
}

func TestStreamBlocksHoldEveryKind(t *testing.T) {
	// After the first block, every block of blockJobs jobs holds one fresh
	// job of each (class, profile count) kind, so blocks cost alike.
	jobs := newStream(3, blockJobs*6)
	for b := 1; b < 6; b++ {
		kinds := make(map[[2]any]int)
		for _, j := range jobs[b*blockJobs : (b+1)*blockJobs] {
			if !j.Repeat {
				kinds[[2]any{j.Spec.Suite, len(j.Spec.Benches)}]++
			}
		}
		if len(kinds) != 2*len(jobClasses) {
			t.Fatalf("block %d holds kinds %v", b, kinds)
		}
	}
}

func TestBlockRatesSplitsPhaseIntoStreamBlocks(t *testing.T) {
	// Two complete blocks and a partial third: only complete blocks count,
	// each the difference between the marks that bracket it.
	n := 2*blockJobs + 3
	h := serviceHalf{recs: make([]jobRecord, n)}
	var cpu time.Duration
	for k := 0; k <= n; k++ {
		h.marks = append(h.marks, usage{cpu: cpu, alloc: uint64(k) * 2e6,
			committed: uint64(k) * 8_000, puts: k})
		if k < blockJobs {
			cpu += 10 * time.Millisecond // job k's CPU
		} else {
			cpu += 30 * time.Millisecond
		}
	}
	cpuPerJob, allocPerJob, minst := blockRates(h)
	if !reflect.DeepEqual(cpuPerJob, []float64{10, 30}) {
		t.Fatalf("cpu per job %v, want [10 30]", cpuPerJob)
	}
	if !reflect.DeepEqual(allocPerJob, []float64{2, 2}) {
		t.Fatalf("alloc per job %v, want [2 2]", allocPerJob)
	}
	// 10k instructions (8k measure + the 2k warmup) per job.
	if want := []float64{1, 1.0 / 3}; math.Abs(minst[0]-want[0]) > 1e-9 || math.Abs(minst[1]-want[1]) > 1e-9 {
		t.Fatalf("Minst per CPU second %v, want %v", minst, want)
	}

	// A phase shorter than one block is taken as a whole.
	short := serviceHalf{recs: make([]jobRecord, 2), marks: []usage{{}, {cpu: 5 * time.Millisecond}, {cpu: 20 * time.Millisecond}}}
	if got, _, _ := blockRates(short); !reflect.DeepEqual(got, []float64{10}) {
		t.Fatalf("short phase: cpu per job %v, want [10]", got)
	}
}

func TestStreamBalancesProfiles(t *testing.T) {
	// Every kind's fresh jobs cover all profiles once per round: the first
	// 22 single-profile jobs name each profile once, the first 11 pairs too.
	jobs := newStream(5, streamLen)
	seen := make(map[string]map[string]int) // kind -> profile -> count
	fresh := make(map[string]int)           // kind -> fresh jobs so far
	names := workload.Names()
	for _, j := range jobs {
		kind := fmt.Sprint(j.Spec.Suite, len(j.Spec.Benches))
		if j.Repeat || fresh[kind]*len(j.Spec.Benches) >= len(names) {
			continue
		}
		fresh[kind]++
		if seen[kind] == nil {
			seen[kind] = make(map[string]int)
		}
		for _, b := range j.Spec.Benches {
			seen[kind][b]++
		}
	}
	if len(seen) != 2*len(jobClasses) {
		t.Fatalf("saw %d kinds, want %d", len(seen), 2*len(jobClasses))
	}
	for kind, counts := range seen {
		for _, n := range names {
			if counts[n] != 1 {
				t.Fatalf("kind %s: first round names %s %d times, want once", kind, n, counts[n])
			}
		}
	}
}
