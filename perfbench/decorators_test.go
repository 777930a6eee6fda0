package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/serve"
)

func TestStoreProbePassesThrough(t *testing.T) {
	for _, tr := range []*trace.Tracer{nil, trace.New(64)} {
		inner := newMemoStore()
		p := &storeProbe{inner: inner, tr: tr}
		want := pipeline.Result{Cycles: 10, Committed: 7, Halted: true}
		if _, ok := p.Get("k"); ok {
			t.Fatal("hit on an empty store")
		}
		p.Put("k", want)
		if got, ok := p.Get("k"); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get = %+v, %t; want %+v", got, ok, want)
		}
		if got := inner.m["k"]; !reflect.DeepEqual(got, want) {
			t.Fatalf("inner store holds %+v", got)
		}
		gets, hits, puts, committed := p.counts()
		if gets != 2 || hits != 1 || puts != 1 || committed != 7 {
			t.Fatalf("counts = %d gets %d hits %d puts %d committed", gets, hits, puts, committed)
		}
		if n := len(p.getLatency.values()); (tr != nil) != (n == 2) {
			t.Fatalf("traced=%t recorded %d get latencies", tr != nil, n)
		}
	}
}

type fakeExecutor struct {
	rep *report.Report
	err error
}

func (f fakeExecutor) Execute(_ context.Context, job serve.ExecJob) (*report.Report, exp.Stats, int, error) {
	return f.rep, exp.Stats{Executed: 3}, 1, f.err
}

func TestExecutorProbePassesThrough(t *testing.T) {
	rep := report.New()
	wantErr := errors.New("lease failed")
	p := &executorProbe{inner: fakeExecutor{rep: rep, err: wantErr}, tr: trace.New(64)}
	got, st, failed, err := p.Execute(context.Background(), serve.ExecJob{ID: "j1"})
	if got != rep || st.Executed != 3 || failed != 1 || err != wantErr {
		t.Fatalf("Execute = %p %+v %d %v", got, st, failed, err)
	}
	if len(p.latency.values()) != 1 {
		t.Fatal("Execute was not timed")
	}
}

func TestFleetRequestsPassThrough(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Path", r.URL.Path)
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, r.Method+" "+r.URL.Path)
	})
	f := newFleetRequests(trace.New(64))
	h := f.wrap(next)
	for _, c := range []struct{ method, path, kind string }{
		{"POST", "/fleet/v1/lease", "lease"},
		{"POST", "/fleet/v1/leases/j1/progress", "progress"},
		{"POST", "/fleet/v1/leases/j1/result", "result"},
		{"GET", "/fleet/v1/results/abc", "store_get"},
		{"PUT", "/fleet/v1/results/abc", "store_put"},
		{"POST", "/fleet/v1/heartbeat", "heartbeat"},
		{"GET", "/v1/jobs", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusTeapot || rec.Body.String() != c.method+" "+c.path || rec.Header().Get("X-Path") != c.path {
			t.Fatalf("%s %s: response changed: %d %q", c.method, c.path, rec.Code, rec.Body.String())
		}
		if c.kind != "" && f.count(c.kind) != 1 {
			t.Fatalf("%s %s: counted %d as %s", c.method, c.path, f.count(c.kind), c.kind)
		}
	}
	if f.count("other") != 0 || len(f.lease.values()) != 1 || len(f.rt.values()) != 5 {
		t.Fatalf("counts %v, lease samples %d, rt samples %d", f.counts, len(f.lease.values()), len(f.rt.values()))
	}
}

// TestOnlyIcachePairsMayDifferInLastBits keeps the rounded document
// comparison to the one suite whose averages sum three or more terms.
func TestOnlyIcachePairsMayDifferInLastBits(t *testing.T) {
	for _, c := range []struct {
		spec serve.JobSpec
		want bool
	}{
		{serve.JobSpec{Suite: "icache", Benches: []string{"astar", "lbm"}}, true},
		{serve.JobSpec{Suite: "icache", Benches: []string{"astar"}}, false},
		{serve.JobSpec{Suite: "fig5", Benches: []string{"astar", "lbm"}}, false},
		{serve.JobSpec{Suite: "lru", Benches: []string{"astar", "lbm"}}, false},
		{serve.JobSpec{Suite: "defenses", Benches: []string{"astar", "lbm"}}, false},
	} {
		if got := lastBitsMayDiffer(c.spec); got != c.want {
			t.Errorf("%s over %v: lastBitsMayDiffer = %t, want %t", c.spec.Suite, c.spec.Benches, got, c.want)
		}
	}
}
