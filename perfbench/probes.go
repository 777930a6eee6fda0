package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"conspec/internal/core"
	"conspec/internal/mem"
	"conspec/internal/serve/journal"
)

// probeReps is how many times each microloop runs; the median is reported.
const probeReps = 5

// sink keeps microloop results live so the compiler cannot drop the calls.
var sink uint64

// microloop times body(n) probeReps times and returns the median ns per
// iteration.
func microloop(n int, body func(n int)) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		body(n)
		xs[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(xs)
}

// kernelProbes times the secmatrix, TPBuf and cache kernels through their
// public APIs, at the densities the simulator's hot paths see.
func kernelProbes() map[string]float64 {
	const n = 200_000
	out := make(map[string]float64)

	sm := core.NewSecMatrix(64, core.ScopeBranchMem)
	producers := make([]uint64, sm.Words())
	out["core.secmat_dispatch_ns"] = microloop(n, func(n int) {
		for i := 0; i < n; i++ {
			x := i % 64
			producers[0] = ^(uint64(1) << uint(x)) // everyone but the new occupant
			sm.OnDispatchMask(x, core.ClassMem, producers)
		}
	})

	hm := core.NewSecMatrix(64, core.ScopeBranchMem)
	entries := make([]core.EntryState, 64)
	for i := range entries {
		entries[i] = core.EntryState{Valid: true, Class: core.ClassMem}
	}
	hm.OnDispatch(7, core.ClassMem, entries)
	out["core.secmat_hazard_ns"] = microloop(n, func(n int) {
		hits := uint64(0)
		for i := 0; i < n; i++ {
			if hm.HasHazard(7 + i&1) {
				hits++
			}
		}
		sink += hits
	})

	tp := core.NewTPBuf(56)
	for i := 0; i < 56; i++ {
		tp.Allocate(i)
		tp.SetSuspect(i, i%3 == 0)
		tp.SetPPN(i, uint64(i)/4)
		if i%2 == 0 {
			tp.SetWriteback(i)
		}
	}
	out["core.tpbuf_query_ns"] = microloop(n, func(n int) {
		safe := uint64(0)
		for i := 0; i < n; i++ {
			if tp.QuerySafe(55, uint64(i)&7) {
				safe++
			}
		}
		sink += safe
	})

	c := mem.NewCache("probe", 64*1024, 4, 64, 2)
	out["mem.cache_access_ns"] = microloop(n, func(n int) {
		for i := 0; i < n; i++ {
			addr := uint64(i) * 64 % (1 << 20)
			if !c.Access(addr, true) {
				c.Refill(addr)
			}
		}
	})
	return out
}

// journalProbeAppends is the sample count of the journal probe.
const journalProbeAppends = 200

// journalProbe times Append+fsync on a scratch journal in dir's file
// system and returns the median and tail in ms.
func journalProbe(dir string) (p50, tl float64, err error) {
	jdir, err := os.MkdirTemp(dir, "journal-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(jdir)
	j, _, err := journal.Open(filepath.Join(jdir, "wal"), journal.Options{})
	if err != nil {
		return 0, 0, err
	}
	spec := []byte(`{"suite":"fig5","benches":["astar"],"warmup":2000,"measure":10000}`)
	xs := make([]float64, journalProbeAppends)
	for i := range xs {
		t0 := time.Now()
		if err := j.Append(journal.OpSubmitted, fmt.Sprintf("probe-%d", i), spec, ""); err != nil {
			j.Close()
			return 0, 0, err
		}
		xs[i] = ms(time.Since(t0))
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	tl, _ = tail(xs)
	return median(xs), tl, nil
}
