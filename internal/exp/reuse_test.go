package exp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// TestSuiteAggregatesIndependentOfWorkers: suite averages are reduced in
// profile order, so they are bit-identical however many workers ran the
// simulations and whichever finished first.
func TestSuiteAggregatesIndependentOfWorkers(t *testing.T) {
	names := []string{"astar", "lbm", "mcf"}
	attackCfg := config.PaperCore()
	attackCfg.Mem.L2Size = 256 * 1024
	attackCfg.Mem.L3Size = 1024 * 1024
	var icache [2]*ICacheResult
	var defenses [2]*DefensesResult
	for i, workers := range []int{1, 4} {
		r := NewRunner(RunnerOptions{Workers: workers})
		var err error
		if icache[i], err = r.ICache(context.Background(), tinySpec(), names); err != nil {
			t.Fatal(err)
		}
		if defenses[i], err = r.Defenses(context.Background(), tinySpec(), names, nil, attackCfg); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %v with 1 worker, %v with 4", what, a, b)
		}
	}
	same("icache without", icache[0].Without, icache[1].Without)
	same("icache with", icache[0].With, icache[1].With)
	for i, row := range defenses[0].Rows {
		same("defenses "+row.Name, row.Overhead, defenses[1].Rows[i].Overhead)
	}
}

// TestRecycledHierarchyMatchesFresh: a run that picks up a hierarchy an
// earlier, different run left idle returns the same Result as the
// same run on a fresh hierarchy (a setup hook forces a fresh one).
func TestRecycledHierarchyMatchesFresh(t *testing.T) {
	spec := tinySpec()
	spec.Sec = pipeline.SecurityConfig{Mechanism: core.Origin}
	RunWorkload(workload.MustGenerate(mustProfile(t, "lbm")), spec)
	idleHierarchies.mu.Lock()
	idled := len(idleHierarchies.hs) > 0 && idleHierarchies.hs[len(idleHierarchies.hs)-1].Config() == spec.Core.Mem
	idleHierarchies.mu.Unlock()
	if !idled {
		t.Fatal("a run without a setup hook left no hierarchy for reuse")
	}
	w := workload.MustGenerate(mustProfile(t, "mcf"))
	spec.Sec = pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}
	recycled := RunWorkload(w, spec)
	fresh := RunWorkloadWith(w, spec, func(*pipeline.CPU) {})
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("recycled-hierarchy run differs:\n  recycled %+v\n  fresh    %+v", recycled, fresh)
	}
}

// TestRunnerSharesWorkloads: a Runner generates each distinct profile once
// and hands every run of it the same workload.
func TestRunnerSharesWorkloads(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	p := mustProfile(t, "astar")
	a, errA := r.workload(p)
	b, errB := r.workload(p)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("same profile gave %p (%v) and %p (%v), want one workload", a, errA, b, errB)
	}
	p.FenceAfterBranches = true
	if c, err := r.workload(p); err != nil || c == a {
		t.Fatalf("a profile variant must get its own workload (err %v)", err)
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return p
}
