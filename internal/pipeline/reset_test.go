package pipeline

import (
	"reflect"
	"testing"

	"conspec/internal/config"
	"conspec/internal/core"
	"conspec/internal/isa"
	"conspec/internal/mem"
	"conspec/internal/workload"
)

// TestResetHierarchyDifferential: a run on a hierarchy that a different run
// dirtied and Reset then handed back must produce the same Result, field
// for field, as the same run on a freshly built hierarchy — for every
// defense backend, every replacement policy, every L1D update policy, and
// with the next-line prefetcher on.
func TestResetHierarchyDifferential(t *testing.T) {
	w := workload.MustGenerate(mustWorkloadProfile(t, "mcf"))
	dirt := workload.MustGenerate(mustWorkloadProfile(t, "lbm"))
	tpbuf := SecurityConfig{Mechanism: core.CacheHitTPBuf}
	type variant struct {
		name string
		sec  SecurityConfig
		mem  func(*mem.HierarchyConfig)
	}
	var variants []variant
	for _, d := range core.Defenses() {
		variants = append(variants, variant{d.Name(), SecurityConfig{Mechanism: d.Mechanism(), SSBD: d.SSBD()}, nil})
	}
	for _, k := range []mem.ReplacementKind{mem.ReplLRU, mem.ReplTreePLRU, mem.ReplRandom} {
		variants = append(variants, variant{"repl-" + k.String(), tpbuf, func(c *mem.HierarchyConfig) { c.Replacement = k }})
	}
	for _, p := range []mem.UpdatePolicy{mem.UpdateAlways, mem.UpdateNoSpec, mem.UpdateDelayed} {
		variants = append(variants, variant{"l1d-" + p.String(), tpbuf, func(c *mem.HierarchyConfig) { c.L1DUpdate = p }})
	}
	variants = append(variants, variant{"next-line-prefetch", tpbuf, func(c *mem.HierarchyConfig) { c.NextLinePrefetch = true }})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallCore()
			if v.mem != nil {
				v.mem(&cfg.Mem)
			}
			fresh := resetDiffRun(t, cfg, v.sec, w, mem.NewHierarchy(cfg.Mem, isa.NewFlatMem()))

			h := mem.NewHierarchy(cfg.Mem, isa.NewFlatMem())
			m := NewMetrics() // leaves a DataLat histogram on h
			dirty := New(cfg, SecurityConfig{Mechanism: core.Origin}, h)
			dirty.AttachMetrics(m)
			dirt.Load(h.Backing)
			dirty.SetPC(dirt.Entry)
			dirty.RunFor(20_000, 2_000_000)
			if h.L3.Resident() == 0 {
				t.Fatal("dirtying run left the L3 empty")
			}
			h.Reset(isa.NewFlatMem())
			if reused := resetDiffRun(t, cfg, v.sec, w, h); !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("run on a reset hierarchy differs from a fresh one:\n  fresh %+v\n  reset %+v", fresh, reused)
			}
		})
	}
}

// resetDiffRun loads w into h's backing store and runs it the way
// exp.RunWorkloadObs does: warmup, statistics reset, measure.
func resetDiffRun(t *testing.T, cfg config.Core, sec SecurityConfig, w *workload.Workload, h *mem.Hierarchy) Result {
	t.Helper()
	w.Load(h.Backing)
	cpu := New(cfg, sec, h)
	cpu.SetPC(w.Entry)
	if res := cpu.RunFor(4_000, 2_000_000); !res.Outcome.Completed() {
		t.Fatalf("warmup ended %v", res.Outcome)
	}
	cpu.ResetStats()
	res := cpu.RunFor(16_000, 2_000_000)
	if !res.Outcome.Completed() {
		t.Fatalf("measure ended %v", res.Outcome)
	}
	return res
}

func mustWorkloadProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	return p
}
