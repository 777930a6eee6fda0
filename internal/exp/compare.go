package exp

import (
	"context"
	"fmt"
	"strings"

	"conspec/internal/core"
	"conspec/internal/pipeline"
	"conspec/internal/workload"
)

// CompareRow holds one benchmark's overheads for the defense comparison.
type CompareRow struct {
	Benchmark string
	TPBuf     float64 // Cache-hit + TPBuf (the paper's mechanism)
	Invisi    float64 // InvisiSpec-like comparator
	SWFence   float64 // LFENCE-style software mitigation
}

// CompareResult is the head-to-head defense comparison: the paper's full
// mechanism, the InvisiSpec-like related-work comparator, and the software
// fence mitigation (§VIII), all against the same Origin runs.
type CompareResult struct {
	Rows []CompareRow
	Avg  CompareRow
}

// Compare measures the three defenses across the benchmarks. The Origin
// and CacheHit+TPBuf runs share cache keys with the fig5 evaluation; the
// fence-recompiled kernel is a distinct workload (the full profile, not
// just its name, feeds the cache key) and is simulated separately.
func (r *Runner) Compare(ctx context.Context, spec RunSpec, names []string) (*CompareResult, error) {
	profiles, err := resolveProfiles(names)
	if err != nil {
		return nil, err
	}
	out := &CompareResult{}
	vals := make([][]float64, len(profiles))
	err = r.eachProfile(ctx, profiles, func(i int, p workload.Profile) error {
		name := p.Name
		s := spec
		s.Sec = pipeline.SecurityConfig{Mechanism: core.Origin}
		origin, err := r.run(ctx, SuiteCompare, p, s)
		if err != nil {
			return suiteErr(ctx, err)
		}
		s.Sec = pipeline.SecurityConfig{Mechanism: core.CacheHitTPBuf}
		tpRes, err := r.run(ctx, SuiteCompare, p, s)
		if err != nil {
			return suiteErr(ctx, err)
		}
		tp := Overhead(origin, tpRes)
		s.Sec = pipeline.SecurityConfig{Mechanism: core.InvisiSpec}
		invRes, err := r.run(ctx, SuiteCompare, p, s)
		if err != nil {
			return suiteErr(ctx, err)
		}
		inv := Overhead(origin, invRes)

		// Software mitigation: the same kernel recompiled with a fence
		// after every conditional branch, run on the UNPROTECTED core.
		pf := p
		pf.FenceAfterBranches = true
		s.Sec = pipeline.SecurityConfig{Mechanism: core.Origin}
		swRes, err := r.run(ctx, SuiteCompare, pf, s)
		if err != nil {
			return suiteErr(ctx, err)
		}
		sw := Overhead(origin, swRes)

		vals[i] = []float64{tp, inv, sw}
		r.emit(ProgressEvent{Suite: SuiteCompare, Benchmark: name, Phase: PhaseBenchDone,
			Line: fmt.Sprintf("%-12s tpbuf %+6.1f%%  invisispec %+6.1f%%  sw-fence %+6.1f%%",
				name, 100*tp, 100*inv, 100*sw)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		if v := vals[i]; v != nil {
			out.Rows = append(out.Rows, CompareRow{Benchmark: p.Name, TPBuf: v[0], Invisi: v[1], SWFence: v[2]})
		}
	}
	out.Avg = CompareRow{Benchmark: "Average", TPBuf: orderedMean(vals, 0),
		Invisi: orderedMean(vals, 1), SWFence: orderedMean(vals, 2)}
	return out, nil
}

// CompareText renders the comparison table.
func CompareText(r *CompareResult) string {
	var sb strings.Builder
	tw := newTable(&sb)
	tw.row("Benchmark", "CH+TPBuf", "InvisiSpec", "SW fence")
	tw.sep()
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	for _, row := range r.Rows {
		tw.row(row.Benchmark, pct(row.TPBuf), pct(row.Invisi), pct(row.SWFence))
	}
	tw.sep()
	tw.row("Average", pct(r.Avg.TPBuf), pct(r.Avg.Invisi), pct(r.Avg.SWFence))
	tw.flush()
	sb.WriteString("\nCH+TPBuf and InvisiSpec are hardware mechanisms (InvisiSpec also\n")
	sb.WriteString("defends the non-shared-memory channels TPBuf misses, at the cost\n")
	sb.WriteString("shown). SW fence is the LFENCE-style recompilation baseline.\n")
	return sb.String()
}
