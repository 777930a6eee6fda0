package mem

import (
	"reflect"
	"testing"

	"conspec/internal/isa"
	"conspec/internal/obs"
)

func testConfig() HierarchyConfig {
	return HierarchyConfig{
		LineBytes: 64,
		L1ISize:   4 * 1024, L1IWays: 4, L1ILat: 2,
		L1DSize: 4 * 1024, L1DWays: 4, L1DLat: 2,
		L2Size: 32 * 1024, L2Ways: 8, L2Lat: 10,
		L3Size: 128 * 1024, L3Ways: 8, L3Lat: 60,
		MemLat:      192,
		ITLBEntries: 8, DTLBEntries: 8, PageWalkLat: 30,
	}
}

func newTestHierarchy(p UpdatePolicy) *Hierarchy {
	cfg := testConfig()
	cfg.L1DUpdate = p
	return NewHierarchy(cfg, isa.NewFlatMem())
}

func TestHierarchyColdMissWarmsAllLevels(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	addr := uint64(0x10000)
	r := h.AccessData(addr, false)
	if r.Level != LevelMem {
		t.Fatalf("cold access hit %v", r.Level)
	}
	if r.Latency < h.MemLat {
		t.Fatalf("cold latency %d < memory latency %d", r.Latency, h.MemLat)
	}
	if !h.L1D.Probe(addr) || !h.L2.Probe(addr) || !h.L3.Probe(addr) {
		t.Fatal("refill must install the line at every level")
	}
	r2 := h.AccessData(addr, false)
	if r2.Level != LevelL1 || r2.Latency != h.L1D.HitLat {
		t.Fatalf("warm access: level %v lat %d", r2.Level, r2.Latency)
	}
	if r.PPN != addr>>isa.PageBits {
		t.Fatalf("PPN = %#x", r.PPN)
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	addr := uint64(0x40000)
	memLat := h.AccessData(addr, false).Latency // cold: TLB walk + mem
	l1Lat := h.AccessData(addr, false).Latency
	h.L1D.Flush(addr)
	l2Lat := h.AccessData(addr, false).Latency
	h.L1D.Flush(addr)
	h.L2.Flush(addr)
	l3Lat := h.AccessData(addr, false).Latency
	if !(l1Lat < l2Lat && l2Lat < l3Lat && l3Lat < memLat) {
		t.Fatalf("latency ordering violated: L1=%d L2=%d L3=%d Mem=%d",
			l1Lat, l2Lat, l3Lat, memLat)
	}
}

func TestHierarchyFlushRemovesEverywhere(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	addr := uint64(0x2000)
	h.AccessData(addr, false)
	h.Flush(addr)
	if h.L1D.Probe(addr) || h.L2.Probe(addr) || h.L3.Probe(addr) {
		t.Fatal("flush must clear all levels")
	}
	if r := h.AccessData(addr, false); r.Level != LevelMem {
		t.Fatalf("after flush access hit %v", r.Level)
	}
}

func TestHitOnlyAccessDiscardssMiss(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	addr := uint64(0x3000)
	if _, ok := h.AccessL1DHitOnly(addr, true); ok {
		t.Fatal("cold hit-only access must miss")
	}
	// The defining property: the discarded miss refilled NOTHING.
	if h.L1D.Probe(addr) || h.L2.Probe(addr) || h.L3.Probe(addr) {
		t.Fatal("discarded miss must not change cache content")
	}
	// Warm the line normally; hit-only now succeeds.
	h.AccessData(addr, false)
	r, ok := h.AccessL1DHitOnly(addr, true)
	if !ok || r.Level != LevelL1 {
		t.Fatalf("expected L1 hit, got ok=%v level=%v", ok, r.Level)
	}
}

func TestNoSpecUpdatePolicy(t *testing.T) {
	h := newTestHierarchy(UpdateNoSpec)
	// Fill one L1D set (4 ways); stride = sets*64.
	stride := uint64(h.L1D.Sets() * h.L1D.LineBytes())
	base := uint64(0)
	for i := 0; i < 4; i++ {
		h.AccessData(base+uint64(i)*stride, false)
	}
	// Suspect hit on way 0 must NOT refresh LRU...
	r := h.AccessData(base, true)
	if r.Level != LevelL1 || r.PendingTouch {
		t.Fatalf("unexpected result %+v", r)
	}
	// ...so a new line evicts way 0 despite the recent suspect hit.
	h.AccessData(base+4*stride, false)
	if h.L1D.Probe(base) {
		t.Fatal("no-update policy: suspect hit must not protect the line")
	}
}

func TestDelayedUpdatePolicy(t *testing.T) {
	h := newTestHierarchy(UpdateDelayed)
	stride := uint64(h.L1D.Sets() * h.L1D.LineBytes())
	base := uint64(0)
	for i := 0; i < 4; i++ {
		h.AccessData(base+uint64(i)*stride, false)
	}
	r := h.AccessData(base, true)
	if !r.PendingTouch {
		t.Fatal("delayed policy must report a pending touch on suspect hits")
	}
	// Pipeline applies the touch when the access becomes non-speculative.
	h.TouchL1D(base)
	h.AccessData(base+4*stride, false)
	if !h.L1D.Probe(base) {
		t.Fatal("after deferred touch the line must be MRU-protected")
	}
}

func TestAlwaysPolicySuspectHitTouches(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	stride := uint64(h.L1D.Sets() * h.L1D.LineBytes())
	for i := 0; i < 4; i++ {
		h.AccessData(uint64(i)*stride, false)
	}
	r := h.AccessData(0, true) // suspect hit under conventional policy
	if r.PendingTouch {
		t.Fatal("always policy never defers")
	}
	h.AccessData(4*stride, false)
	if !h.L1D.Probe(0) {
		t.Fatal("always policy: suspect hit protects the line")
	}
}

func TestAccessInstWarmsL1I(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	pc := uint64(0x1000)
	r := h.AccessInst(pc)
	if r.Level != LevelMem {
		t.Fatalf("cold fetch hit %v", r.Level)
	}
	r = h.AccessInst(pc)
	if r.Level != LevelL1 {
		t.Fatalf("warm fetch hit %v", r.Level)
	}
	if !h.ProbeL1I(pc) {
		t.Fatal("ProbeL1I must see the line")
	}
	if h.L1D.Probe(pc) {
		t.Fatal("instruction fetch must not pollute L1D")
	}
}

func TestTLBMissChargesWalk(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	addr := uint64(0x5000)
	cold := h.AccessData(addr, false)
	warm := h.AccessData(addr+8, false) // same page, now TLB-warm, L1-warm line? +8 same line
	if cold.Latency-warm.Latency < h.DTLB.WalkLat {
		t.Fatalf("cold=%d warm=%d: TLB walk not charged", cold.Latency, warm.Latency)
	}
}

func TestTLBLRUAndProbe(t *testing.T) {
	tlb := NewTLB("t", 2, 30)
	a, b, c := uint64(0), uint64(1)<<isa.PageBits, uint64(2)<<isa.PageBits
	tlb.Translate(a)
	tlb.Translate(b)
	if !tlb.Probe(a) || !tlb.Probe(b) {
		t.Fatal("both pages must be cached")
	}
	tlb.Translate(a) // a MRU
	tlb.Translate(c) // evicts b
	if tlb.Probe(b) {
		t.Fatal("b must have been evicted (LRU)")
	}
	if !tlb.Probe(a) || !tlb.Probe(c) {
		t.Fatal("a and c must remain")
	}
	if ppn, lat := tlb.Translate(a); ppn != 0 || lat != 0 {
		t.Fatalf("hit translate = %d lat %d", ppn, lat)
	}
	tlb.InvalidateAll()
	if tlb.Probe(a) {
		t.Fatal("invalidate-all must clear entries")
	}
}

func TestHierarchyDataReadWrite(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	h.WriteData(0x8000, 8, 0xABCD)
	if got := h.ReadData(0x8000, 8); got != 0xABCD {
		t.Fatalf("read %#x", got)
	}
}

func TestInvalidateAll(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	h.AccessData(0x1234, false)
	h.AccessInst(0x5678)
	h.InvalidateAll()
	if h.L1D.Resident()+h.L1I.Resident()+h.L2.Resident()+h.L3.Resident() != 0 {
		t.Fatal("caches not empty after InvalidateAll")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	cfg := testConfig()
	cfg.NextLinePrefetch = true
	h := NewHierarchy(cfg, isa.NewFlatMem())
	addr := uint64(0x10000)
	h.AccessData(addr, false) // miss: fills addr and prefetches addr+64
	if !h.L1D.Probe(addr + 64) {
		t.Fatal("next line not prefetched")
	}
	if h.Prefetches != 1 {
		t.Fatalf("prefetch count %d", h.Prefetches)
	}
	// The prefetched line must now hit without a miss.
	if r := h.AccessData(addr+64, false); r.Level != LevelL1 {
		t.Fatalf("prefetched line hit at %v", r.Level)
	}
	// Resident prefetch targets are not refilled again.
	h.AccessData(addr+8, false) // same first line: hit, no prefetch issued?
	if h.Prefetches != 1 {
		t.Fatalf("hits must not prefetch, count %d", h.Prefetches)
	}
}

func TestPrefetchOffByDefault(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	h.AccessData(0x9000, false)
	if h.L1D.Probe(0x9040) || h.Prefetches != 0 {
		t.Fatal("prefetcher must default off (paper configuration)")
	}
}

func TestNoRefillAccessInvisible(t *testing.T) {
	h := newTestHierarchy(UpdateAlways)
	addr := uint64(0x7000)
	r := h.AccessDataNoRefill(addr)
	if r.Level != LevelMem {
		t.Fatalf("cold invisible access hit %v", r.Level)
	}
	if h.L1D.Probe(addr) || h.L2.Probe(addr) || h.L3.Probe(addr) {
		t.Fatal("invisible access must not refill anything")
	}
	// Warm via a normal access: the invisible access then reports L1 and
	// still changes nothing (LRU untouched is covered by cache tests).
	h.AccessData(addr, false)
	if r := h.AccessDataNoRefill(addr); r.Level != LevelL1 {
		t.Fatalf("invisible access on warm line hit %v", r.Level)
	}
}

// TestResetEqualsFresh dirties a hierarchy through every mutating path —
// refills, evictions, flushes, deferred touches, prefetches, TLB walks, a
// DataLat histogram, a coherence peer — and checks Reset leaves it
// field-for-field equal to a freshly built one, under every replacement
// policy.
func TestResetEqualsFresh(t *testing.T) {
	for _, repl := range []ReplacementKind{ReplLRU, ReplTreePLRU, ReplRandom} {
		t.Run(repl.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Replacement = repl
			cfg.L1DUpdate = UpdateDelayed
			cfg.NextLinePrefetch = true
			h := NewHierarchy(cfg, isa.NewFlatMem())
			h.DataLat = obs.NewRegistry().Histogram("lat", obs.DefaultBounds)
			NewSharedHierarchy(cfg, h)
			for i := uint64(0); i < 4096; i++ {
				addr := (i * 0x9E3779B97F4A7C15) % (1 << 22)
				h.AccessData(addr, i%3 == 0)
				h.AccessInst(addr)
				h.TouchL1D(addr)
				if i%7 == 0 {
					h.Flush(addr)
				}
			}
			h.L1D.HitLat, h.ITLB.WalkLat, h.MemLat = 99, 99, 99
			backing := isa.NewFlatMem()
			h.Reset(backing)
			if fresh := NewHierarchy(cfg, backing); !reflect.DeepEqual(h, fresh) {
				t.Fatal("reset hierarchy differs from a freshly built one")
			}
		})
	}
}
