// Command benchmark times the simulator end to end and layer by layer on
// four workloads, through the public API with default settings only:
//
//	fleet-sweep        knob-free fleet.Run of 810 real-network devices
//	fig9-matrix        harness.RunAll, the paper's 72-cell Fig. 9 matrix
//	brownout-campaign  exhaustive WAR-armed brown-out campaigns
//	serve-jobs         open-loop jobs against the HTTP job server
//
// Each run sets up cold, warms up, measures for -seconds, checks every
// result, and with -trace runs a separate traced pass for the per-layer
// metrics. The last line of standard output is one JSON object with the
// run's verdict and metrics. See README.md for the workloads, metrics and
// bounds.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh -workload fleet-sweep -seed 3 -seconds 10 -trace 0
//	bash benchmark/run.sh -seed 1 -out results.json -trace spans.json
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Uint64("seed", 1, "input seed: fleet and job spec seeds, arrival schedule")
		seconds  = flag.Float64("seconds", 10, "measuring time per workload, after set-up and warm-up")
		traceArg = flag.String("trace", "1", "0: end-to-end metrics only; 1: also the traced pass; any other value: as 1, writing the spans to that file")
		out      = flag.String("out", "", "write the results record to this JSON file")
		compare  = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two results files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		names = []string{*workload}
	}
	cfg := config{seed: *seed, seconds: *seconds, sz: fullSize, traced: *traceArg != "0"}
	if *traceArg != "0" && *traceArg != "1" {
		cfg.spansPath = *traceArg
	}
	workDir := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	rep, err := run(cfg, names, workDir)
	if rmErr := os.RemoveAll(workDir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatal(err)
		}
	}
	line := rep.resultLine(cfg.traced)
	fmt.Println(string(mustJSON(line)))
	if !line.Correct {
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	seed      uint64
	seconds   float64
	sz        sizes
	traced    bool
	spansPath string
}

// report is the results schema: a machine fingerprint and one record per
// workload. It carries no absolute bars; -compare judges one report
// against another.
type report struct {
	Machine   machine      `json:"machine"`
	Seconds   float64      `json:"seconds"`
	Workloads []record     `json:"workloads"`
	Spans     []spanTotals `json:"spans,omitempty"`
}

type machine struct {
	GoVersion   string `json:"go_version"`
	GOARCH      string `json:"goarch"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	VCSRevision string `json:"vcs_revision"`
}

type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Reps     int      `json:"reps"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Digest   string   `json:"digest"`
	Failures []string `json:"failures,omitempty"`
	// E2E holds the end-to-end metrics in reference seconds; RefS is the
	// reference-kernel time they were converted by (wall = reference ×
	// RefS.Median ÷ refUnit).
	E2E    map[string]e2eStat `json:"e2e"`
	RefS   e2eStat            `json:"ref_s"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// Thin names percentiles reported with fewer than minBeyond samples
	// beyond them; full-size runs are sized to leave it empty.
	Thin []string `json:"thin,omitempty"`
}

// e2eStat is one end-to-end metric of one run: the median of its samples,
// their quartiles and their count.
type e2eStat struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func statOf(xs []float64) e2eStat {
	q1, med, q3 := quartiles(xs)
	return e2eStat{Q1: q1, Median: med, Q3: q3, N: len(xs)}
}

// run sets up, measures the named workloads and, when traced, runs the
// traced pass.
func run(cfg config, names []string, workDir string) (*report, error) {
	// The library fans out over GOMAXPROCS wherever it takes no worker
	// count (GENESIS preparation, RunAll), so pin it like every other
	// fan-out: the load is the same on any host.
	runtime.GOMAXPROCS(simWorkers)
	b := &bench{seed: cfg.seed, seconds: cfg.seconds, sz: cfg.sz, testModels: brownoutModels(), ref: newRefClock()}
	logf("set-up × %d", cfg.sz.setupReps)
	e, err := setup(workDir, cfg.sz.setupReps, b.ref)
	if err != nil {
		return nil, err
	}
	b.env = e
	ws := b.workloads()
	golden, err := goldenDigests()
	if err != nil {
		return nil, err
	}

	rep := &report{Machine: fingerprint(), Seconds: cfg.seconds}
	for _, name := range names {
		rec := b.measure(ws[name], e)
		if want, ok := golden[name]; ok && cfg.seed == 1 && cfg.sz == fullSize && rec.Digest != "" && rec.Digest != want {
			rec.Failures = append(rec.Failures, fmt.Sprintf("result digest %s, golden/seed1.json has %s", rec.Digest, want))
		}
		rec.Failed = len(rec.Failures)
		rep.Workloads = append(rep.Workloads, rec)
	}
	if !cfg.traced {
		return rep, nil
	}

	logf("traced pass")
	tr := newTracer()
	l, fails, err := b.tracedPass(ws, tr, workDir)
	if err != nil {
		return nil, err
	}
	if cfg.sz == fullSize && len(l.thin) > 0 {
		fails = append(fails, "percentiles with too few samples beyond them: "+strings.Join(l.thin, ", "))
	}
	for i := range rep.Workloads {
		r := &rep.Workloads[i]
		r.Layers, r.Thin = l.vals, l.thin
		r.Failures = append(r.Failures, fails...)
		r.Failed = len(r.Failures)
	}
	rep.Spans = tr.totals()
	if cfg.spansPath != "" {
		if err := tr.writeChrome(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measure runs one workload's warm-up and timed reps and checks them.
func (b *bench) measure(w *workload, e *env) record {
	rec := record{Workload: w.name, Seed: b.seed, E2E: make(map[string]e2eStat)}
	fail := func(err error) { rec.Failures = append(rec.Failures, err.Error()) }

	logf("%s: warm-up", w.name)
	if _, err := w.rep(nil, repWarm); err != nil {
		fail(fmt.Errorf("warm-up: %w", err))
	}
	runtime.GC()
	logf("%s: measuring", w.name)
	var outs []*repOut
	var lat, work []float64 // in reference seconds
	start := time.Now()
	for len(outs) < b.sz.minReps || time.Since(start).Seconds() < b.seconds {
		o, err := w.rep(nil, repTimed)
		if err != nil {
			rec.Ops++
			fail(err)
			break
		}
		outs = append(outs, o)
		rec.Ops += o.ops
		f := b.ref.sampleFor(refShare(o.wall))
		lat = append(lat, scale(o.latency, f)...)
		work = append(work, scale(o.work, 1/f)...)
	}
	rec.Reps = len(outs)
	if len(outs) == 0 {
		return rec
	}
	rec.Failures = append(rec.Failures, w.check(outs)...)
	rec.Digest = outs[0].digest
	if len(lat) == 0 || len(work) == 0 {
		fail(errors.New("no unit of work completed"))
		return rec
	}
	rec.RefS = statOf(b.ref.samples)
	rec.E2E["setup_s"] = statOf(e.setupRefS)
	rec.E2E["latency_s"] = statOf(lat)
	rec.E2E["work_per_s"] = statOf(work)
	return rec
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine reports the end-to-end values, or with traced the per-layer
// metrics. With several workloads, end-to-end names are prefixed by the
// workload's; the layer metrics are shared by all.
func (r *report) resultLine(traced bool) resultLine {
	line := resultLine{Metrics: make(map[string]metricValue)}
	for _, rec := range r.Workloads {
		line.Attempted += rec.Ops
		line.Failed += rec.Failed
		if traced {
			for _, d := range layerMetrics() {
				if v, ok := rec.Layers[d.Name]; ok {
					line.Metrics[d.Name] = metricValue{v, d.Unit}
				}
			}
			continue
		}
		for _, d := range e2eMetrics {
			name := d.Name
			if len(r.Workloads) > 1 {
				name = rec.Workload + "." + name
			}
			if st, ok := rec.E2E[d.Name]; ok {
				line.Metrics[name] = metricValue{st.Median, d.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

func fingerprint() machine {
	m := machine{
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", VCSRevision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.VCSRevision = s.Value
			}
		}
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
