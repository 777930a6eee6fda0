package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"conspec/internal/obs/trace"
	"conspec/internal/workload"
)

// chromeEvent mirrors the Chrome trace-event fields the tests read back.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// arg reads a string annotation ("" when absent or non-string, like the
// numeric span_id/parent_id args).
func (e chromeEvent) arg(key string) string {
	s, _ := e.Args[key].(string)
	return s
}

func exportChrome(t *testing.T, tr *trace.Tracer) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

// TestRunnerSuiteTrace pins the acceptance shape of an instrumented suite
// run: the export is Perfetto-loadable JSON containing a suite span, run
// spans annotated with their mechanism nested inside it, setup/warmup/
// measure phase spans nested inside the runs, and — after a warm re-run — cached
// run spans annotated with the serving cache tier.
func TestRunnerSuiteTrace(t *testing.T) {
	tr := trace.New(256)
	r := NewRunner(RunnerOptions{Trace: tr})
	spec := tinySpec()
	names := []string{"astar"}
	ctx := context.Background()
	for i := 0; i < 2; i++ { // second pass is served from the memo tier
		if _, err := r.RunSuite(ctx, SuiteFig5, Options{Spec: spec, Benches: names}); err != nil {
			t.Fatal(err)
		}
	}

	events := exportChrome(t, tr)
	byName := map[string][]chromeEvent{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete-event X", ev.Name, ev.Ph)
		}
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	if n := len(byName["suite:fig5"]); n != 2 {
		t.Fatalf("%d suite:fig5 spans, want 2", n)
	}
	runs := byName["run:astar"]
	if len(runs) != 8 { // 4 mechanisms executed + 4 memo hits
		t.Fatalf("%d run:astar spans, want 8", len(runs))
	}
	suite := byName["suite:fig5"][0]
	var executed, cached int
	for _, run := range runs {
		if run.arg("mechanism") == "" {
			t.Fatalf("run span lacks mechanism annotation: %+v", run)
		}
		if run.arg("tier") != "" {
			cached++
			if run.arg("cache") != "hit" || run.arg("tier") != TierMemory {
				t.Fatalf("cached run span has wrong annotations: %+v", run.Args)
			}
		} else {
			executed++
		}
	}
	if executed != 4 || cached != 4 {
		t.Fatalf("executed/cached run spans = %d/%d, want 4/4", executed, cached)
	}
	// Phase spans: one setup, one warmup and one measure per executed run,
	// each nested in a run span's time range on the run's thread track.
	for _, phase := range []string{"setup", "warmup", "measure"} {
		spans := byName[phase]
		if len(spans) != 4 {
			t.Fatalf("%d %s spans, want 4", len(spans), phase)
		}
		for _, ph := range spans {
			nested := false
			for _, run := range runs {
				if ph.TID == run.TID && ph.TS >= run.TS && ph.TS+ph.Dur <= run.TS+run.Dur+0.001 {
					nested = true
					break
				}
			}
			if !nested {
				t.Fatalf("%s span not nested in any run span: %+v", phase, ph)
			}
		}
	}
	// Suite span must cover its first run span.
	first := runs[0]
	if suite.TS > first.TS || suite.TS+suite.Dur < first.TS+first.Dur {
		t.Fatalf("suite span [%f,%f] does not cover run span [%f,%f]",
			suite.TS, suite.TS+suite.Dur, first.TS, first.TS+first.Dur)
	}
	if _, dropped := tr.Stats(); dropped != 0 {
		t.Fatalf("tracer dropped %d spans/annotations", dropped)
	}
}

// TestRunWorkloadObsPhases pins the phase-hook contract: setup, warmup,
// then measure, begin strictly before end, and the hook changing nothing
// about the result.
func TestRunWorkloadObsPhases(t *testing.T) {
	p, ok := workload.ByName("astar")
	if !ok {
		t.Fatal("astar profile missing")
	}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	var log []string
	onPhase := func(name string) func() {
		log = append(log, "begin:"+name)
		return func() { log = append(log, "end:"+name) }
	}
	res, err := RunWorkloadObs(context.Background(), w, spec, nil, onPhase)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"begin:setup", "end:setup", "begin:warmup", "end:warmup", "begin:measure", "end:measure"}
	if len(log) != len(want) {
		t.Fatalf("phase log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("phase log %v, want %v", log, want)
		}
	}
	plain, err := RunWorkloadCtx(context.Background(), w, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != plain.Cycles || res.Committed != plain.Committed {
		t.Fatalf("observed run differs from plain run: %d/%d cycles, %d/%d committed",
			res.Cycles, plain.Cycles, res.Committed, plain.Committed)
	}
}

// TestRunnerSkipMetaCounters: executed runs aggregate the stall skipper's
// meta-counters into engine Stats.
func TestRunnerSkipMetaCounters(t *testing.T) {
	r := NewRunner(RunnerOptions{})
	spec := tinySpec()
	if _, err := r.Evaluation(context.Background(), spec, []string{"lbm"}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.SkippedCycles == 0 || st.SkipSpans == 0 {
		t.Fatalf("memory-bound suite skipped nothing: %+v", st)
	}
}
