package main

import "testing"

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	v, pct = tail(xs[:40]) // 100..61
	if v != 90 || pct != 75 {
		t.Fatalf("tail of 61..100 = %v at p%v, want 90 at p75", v, pct)
	}
	v, pct = tail([]float64{3, 1, 2})
	if v != 3 || pct != 100 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	chrome := []byte(`{"traceEvents":[
{"name":"sim:astar","dur":1000,"args":{"span_id":1,"parent_id":0}},
{"name":"pipeline.measure","dur":600,"args":{"span_id":2,"parent_id":1}},
{"name":"sim:lbm","dur":500,"args":{"span_id":3,"parent_id":0}},
{"name":"pipeline.measure","dur":100,"args":{"span_id":4,"parent_id":3}}]}`)
	self, err := selfTimes(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if self["sim"] != 0.8 || self["pipeline.measure"] != 0.7 {
		t.Fatalf("self times %v, want sim 0.8 ms and pipeline.measure 0.7 ms", self)
	}
}
