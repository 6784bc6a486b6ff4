package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the repository-root description of this benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatches: BENCHMARK.json lists exactly the workloads and
// metrics this program emits, with the same units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wls, workloadNames)
	}
	if !slices.Equal(b.EndToEnd, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nprogram has\n%v", b.EndToEnd, e2eMetrics)
	}
	if !slices.Equal(b.PerLayer, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetrics()")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics()...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range wls {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is malformed or repeated", w)
		}
		seen[w] = true
	}
}

// TestSmoke runs all four workloads at toy size with the traced pass: every
// gate passes, and each record emits exactly the declared metrics.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	cfg := config{seed: 2, seconds: 1, sz: toySize, traced: true, spansPath: spans}
	rep, err := run(cfg, workloadNames, filepath.Join(dir, "work"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadNames) {
		t.Fatalf("%d records, want %d", len(rep.Workloads), len(workloadNames))
	}
	var layerNames []string
	for _, d := range layerMetrics() {
		layerNames = append(layerNames, d.Name)
	}
	slices.Sort(layerNames)
	for _, rec := range rep.Workloads {
		if rec.Failed != 0 || rec.Ops == 0 {
			t.Errorf("%s: %d of %d failed: %v", rec.Workload, rec.Failed, rec.Ops, rec.Failures)
		}
		for _, d := range e2eMetrics {
			if st, ok := rec.E2E[d.Name]; !ok || st.Median <= 0 {
				t.Errorf("%s: end-to-end %s missing or not positive: %+v", rec.Workload, d.Name, st)
			}
		}
		if len(rec.E2E) != len(e2eMetrics) {
			t.Errorf("%s: %d end-to-end metrics, want %d", rec.Workload, len(rec.E2E), len(e2eMetrics))
		}
		var got []string
		for name := range rec.Layers {
			got = append(got, name)
		}
		slices.Sort(got)
		if !slices.Equal(got, layerNames) {
			t.Errorf("%s: emitted layer metrics differ from layerMetrics()", rec.Workload)
		}
	}
	for _, traced := range []bool{false, true} {
		line := rep.resultLine(traced)
		if !line.Correct || line.Attempted == 0 {
			t.Errorf("result line (traced=%v): correct=%v attempted=%d", traced, line.Correct, line.Attempted)
		}
	}

	buf, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("spans file: %v", err)
	}
	names := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("span %q: phase %q duration %v", e.Name, e.Ph, e.Dur)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"genesis.PrepareAll", "fleet.Campaign.Run", "harness.RunAll",
		"intermittest.SweepRuntime sonic", "loadgen.POST /jobs", "serve.job", "serve.run"} {
		if !names[want] {
			t.Errorf("no %q span in the trace", want)
		}
	}
}

// TestCompare: -compare fails only when an end-to-end metric moves the
// wrong way by more than its bound.
func TestCompare(t *testing.T) {
	rec := func(latency, work float64) *report {
		return &report{Workloads: []record{{Workload: wFleet, E2E: map[string]e2eStat{
			"setup_s":    {Median: 3},
			"latency_s":  {Median: latency},
			"work_per_s": {Median: work},
		}}}}
	}
	base := rec(1, 800)
	for _, tc := range []struct {
		b  *report
		ok bool
	}{
		{rec(1, 800), true},
		{rec(0.5, 1600), true}, // better
		{rec(1+e2eMetrics[1].Bound*0.9, 800), true},
		{rec(1+e2eMetrics[1].Bound*1.1, 800), false},
		{rec(1, 800*(1-e2eMetrics[2].Bound*1.1)), false},
	} {
		if got := compareReports(io.Discard, base, tc.b); got != tc.ok {
			t.Errorf("compare latency %v work %v: ok=%v, want %v",
				tc.b.Workloads[0].E2E["latency_s"].Median, tc.b.Workloads[0].E2E["work_per_s"].Median, got, tc.ok)
		}
	}
}
