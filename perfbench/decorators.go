package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"conspec/internal/exp"
	"conspec/internal/exp/report"
	"conspec/internal/obs/trace"
	"conspec/internal/pipeline"
	"conspec/internal/serve"
)

// latencies is a mutex-guarded set of millisecond samples.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.xs = append(l.xs, ms(d))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs...)
}

// memoStore is an in-memory exp.ResultCache.
type memoStore struct {
	mu sync.Mutex
	m  map[string]pipeline.Result
}

func newMemoStore() *memoStore { return &memoStore{m: make(map[string]pipeline.Result)} }

func (s *memoStore) Get(key string) (pipeline.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

func (s *memoStore) Put(key string, res pipeline.Result) {
	s.mu.Lock()
	s.m[key] = res
	s.mu.Unlock()
}

// results returns every stored result, in no particular order.
func (s *memoStore) results() []pipeline.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]pipeline.Result, 0, len(s.m))
	for _, r := range s.m {
		out = append(out, r)
	}
	return out
}

// storeProbe decorates an exp.ResultCache. It always counts gets, hits and
// the committed instructions of every result written back (each Put is one
// executed simulation); with a tracer it also times every call in a span.
type storeProbe struct {
	inner exp.ResultCache
	tr    *trace.Tracer // nil: count only

	mu                     sync.Mutex
	gets, hits, puts       int
	committed              uint64 // measure-phase committed of Put results
	getLatency, putLatency latencies
}

func (s *storeProbe) Get(key string) (pipeline.Result, bool) {
	var t0 time.Time
	sp := trace.NoSpan
	if s.tr != nil {
		sp = s.tr.Begin(trace.NoSpan, "diskcache.get")
		t0 = time.Now()
	}
	res, ok := s.inner.Get(key)
	if s.tr != nil {
		s.getLatency.add(time.Since(t0))
		s.tr.End(sp)
	}
	s.mu.Lock()
	s.gets++
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return res, ok
}

func (s *storeProbe) Put(key string, res pipeline.Result) {
	var t0 time.Time
	sp := trace.NoSpan
	if s.tr != nil {
		sp = s.tr.Begin(trace.NoSpan, "diskcache.put")
		t0 = time.Now()
	}
	s.inner.Put(key, res)
	if s.tr != nil {
		s.putLatency.add(time.Since(t0))
		s.tr.End(sp)
	}
	s.mu.Lock()
	s.puts++
	s.committed += res.Committed
	s.mu.Unlock()
}

// counts returns gets, hits, puts and the committed-instruction sum.
func (s *storeProbe) counts() (gets, hits, puts int, committed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.hits, s.puts, s.committed
}

// executorProbe decorates a serve.Executor (the fleet coordinator) and
// times each job's Execute in a span.
type executorProbe struct {
	inner   serve.Executor
	tr      *trace.Tracer
	latency latencies
}

func (e *executorProbe) Execute(ctx context.Context, job serve.ExecJob) (*report.Report, exp.Stats, int, error) {
	sp := e.tr.Begin(trace.NoSpan, "fleet.execute")
	e.tr.Annotate(sp, "job", job.ID)
	t0 := time.Now()
	rep, st, failed, err := e.inner.Execute(ctx, job)
	e.latency.add(time.Since(t0))
	e.tr.End(sp)
	return rep, st, failed, err
}

// fleetRequests is an http.Handler middleware that counts and times the
// fleet protocol's requests (/fleet/v1/...) by kind; everything else
// passes through untouched.
type fleetRequests struct {
	tr *trace.Tracer

	mu     sync.Mutex
	counts map[string]int
	// rt holds every fleet round trip except lease long-polls, whose time
	// is mostly waiting for work; lease holds those.
	rt, lease latencies
}

func newFleetRequests(tr *trace.Tracer) *fleetRequests {
	return &fleetRequests{tr: tr, counts: make(map[string]int)}
}

func (f *fleetRequests) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/fleet/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		kind := fleetRequestKind(r.Method, r.URL.Path)
		sp := f.tr.Begin(trace.NoSpan, "fleet.http:"+kind)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		f.tr.End(sp)
		if kind == "lease" {
			f.lease.add(d)
		} else {
			f.rt.add(d)
		}
		f.mu.Lock()
		f.counts[kind]++
		f.mu.Unlock()
	})
}

func (f *fleetRequests) count(kind string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[kind]
}

// fleetRequestKind classifies a fleet protocol request by its route.
func fleetRequestKind(method, path string) string {
	rest := strings.TrimPrefix(path, "/fleet/v1/")
	switch {
	case rest == "lease", rest == "register", rest == "heartbeat":
		return rest
	case strings.HasPrefix(rest, "leases/") && strings.HasSuffix(rest, "/progress"):
		return "progress"
	case strings.HasPrefix(rest, "leases/") && strings.HasSuffix(rest, "/result"):
		return "result"
	case strings.HasPrefix(rest, "results/"):
		return "store_" + strings.ToLower(method)
	}
	return "other"
}
