package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"conspec/internal/obs/trace"
)

// TestTracedPathReproducesRunnerDigest checks that the traced run's
// step-by-step simulation path does exactly the work exp.Runner does, for
// both batch workloads, at a small budget.
func TestTracedPathReproducesRunnerDigest(t *testing.T) {
	for _, b := range []batchWorkload{fig5Sweep(), defensesSetup()} {
		b.spec.Warmup, b.spec.Measure = 1_000, 4_000
		b.profiles = []string{"astar", "lbm"}
		names := passOrder(b.profiles, 1, 0)
		plain := b.runnerPass(context.Background(), names)
		if plain.runErrors != 0 || plain.sims == 0 {
			t.Fatalf("runner pass: %d sims, problems %v", plain.sims, plain.problems)
		}
		var sl simLayers
		traced := b.tracedPass(context.Background(), trace.New(1024), names, &sl, plain.expectBlock)
		if traced.digest != plain.digest {
			t.Fatalf("defenses=%t: traced digest %s, runner digest %s", b.defenses, traced.digest, plain.digest)
		}
		if traced.sims != plain.sims || traced.committed != plain.committed {
			t.Fatalf("defenses=%t: traced %d sims / %d insts, runner %d / %d",
				b.defenses, traced.sims, traced.committed, plain.sims, plain.committed)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
