package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/intermittest"
)

// sizes scales the workloads; the toy sizes keep the test suite's smoke
// run to seconds.
type sizes struct {
	fleetDevices int     // fleet-sweep campaign size
	setupReps    int     // cold set-ups timed for setup_s
	minReps      int     // timed reps at least, however long they take
	inferDevices int     // devices per cell for the infer.* layer metrics
	checkSample  int     // boundaries for intermittest.*.check_us
	serveRate    float64 // serve-jobs arrivals per second
	serveWindowS float64 // serve-jobs open-loop window: one rep
	tracedServeS float64 // serve-jobs phase of the traced pass
	sampledJobs  int     // served jobs re-run in process for the byte-equality gate
}

var (
	fullSize = sizes{fleetDevices: 810, setupReps: 3, minReps: 3, inferDevices: 20, checkSample: 256,
		serveRate: 5, serveWindowS: 2, tracedServeS: 26, sampledJobs: 12}
	toySize = sizes{fleetDevices: 27, setupReps: 1, minReps: 1, inferDevices: 1, checkSample: 16,
		serveRate: 5, serveWindowS: 1, tracedServeS: 2, sampledJobs: 2}
)

// repKind says which pass a rep belongs to; serve-jobs sizes its phase and
// picks its arrival stream by it.
type repKind int

const (
	repWarm     repKind = iota // untimed warm-up
	repTimed                   // end-to-end metrics
	repBaseline                // traced pass, tracing off: heap peak and overhead base
	repTraced                  // traced pass, spans on
)

// repOut is one rep's outcome.
type repOut struct {
	wall    float64   // seconds
	latency []float64 // the rep's latency samples (one: its wall time; serve: per new job)
	work    []float64 // simulated work per second, per latency sample
	ops     int       // units of user work attempted: 1 per rep, arrivals for serve
	digest  string

	fleet *fleet.Result          // fleet-sweep
	eval  *harness.Eval          // fig9-matrix
	camp  []*intermittest.Report // brownout-campaign, one per model
	phase *phaseOut              // serve-jobs
}

// workload is one named traffic mix: rep runs one unit of it (tr nil when
// untraced), check gates the timed reps' results.
type workload struct {
	name  string
	rep   func(tr *tracer, kind repKind) (*repOut, error)
	check func(outs []*repOut) []string
}

// bench holds one run's configuration and shared set-up.
type bench struct {
	seed    uint64
	seconds float64
	sz      sizes
	env     *env
	ref     *refClock

	testModels []testModel // brownout-campaign's models

	oneWorker      *repOut // fleetOneWorker's sweep, once run
	oneWorkerAlloc uint64
	serveWindows   uint64 // serve-jobs windows drawn so far: each takes its own arrival stream
}

// testModel is one brown-out campaign model and its input.
type testModel struct {
	qm *dnn.QuantModel
	x  []float64
}

// brownoutModels are the campaign's two models: the tiny network and the
// adversarial CSR network whose row shapes hit every span boundary.
func brownoutModels() []testModel {
	tiny, tx := intermittest.TinyModel(modelSeed)
	adv, ax := intermittest.AdversarialCSRModel(modelSeed)
	return []testModel{{tiny, tx}, {adv, ax}}
}

func (b *bench) workloads() map[string]*workload {
	return map[string]*workload{
		wFleet:    {name: wFleet, rep: b.fleetRep, check: b.fleetCheck},
		wFig9:     {name: wFig9, rep: b.fig9Rep, check: b.fig9Check},
		wBrownout: {name: wBrownout, rep: b.brownoutRep, check: b.brownoutCheck},
		wServe:    {name: wServe, rep: b.serveRep, check: b.serveCheck},
	}
}

// fleetRep sweeps the knob-free fleet once: campaign construction, the
// 2-worker run, and the summary readout a user of the result pays for.
func (b *bench) fleetRep(tr *tracer, _ repKind) (*repOut, error) {
	return b.fleetSweep(tr, simWorkers)
}

func (b *bench) fleetSweep(tr *tracer, workers int) (*repOut, error) {
	spec := fleetSpec(b.sz.fleetDevices, b.seed)
	root := tr.start("fleet-sweep", nil, 1)
	t0 := time.Now()
	sp := tr.start("fleet.NewCampaign", root, 1)
	c, err := fleet.NewCampaign(spec, b.env.models)
	sp.end()
	if err != nil {
		root.end()
		return nil, err
	}
	sp = tr.start("fleet.Campaign.Run", root, 1)
	res, err := c.Run(context.Background(), workers)
	sp.end()
	if err != nil {
		root.end()
		return nil, err
	}
	sp = tr.start("fleet.Aggregates.Summary", root, 1)
	sum := res.Agg.Summary()
	sp.end()
	wall := time.Since(t0).Seconds()
	root.end()
	return &repOut{wall: wall, latency: []float64{wall}, work: []float64{float64(spec.Devices) / wall},
		ops: 1, digest: digestBytes(mustJSON(sum)), fleet: res}, nil
}

// fleetOneWorker sweeps the fleet at 1 worker the first time it is called,
// for the 1-vs-2-worker gate and the per-device layer metrics, and returns
// that sweep and the bytes it allocated.
func (b *bench) fleetOneWorker() (*repOut, uint64, error) {
	if b.oneWorker == nil {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		one, err := b.fleetSweep(nil, 1)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, err
		}
		b.oneWorker, b.oneWorkerAlloc = one, m1.TotalAlloc-m0.TotalAlloc
	}
	return b.oneWorker, b.oneWorkerAlloc, nil
}

// fleetCheck: the summary is byte-identical across reps and at 1 worker.
func (b *bench) fleetCheck(outs []*repOut) []string {
	fs := sameDigests(outs)
	one, _, err := b.fleetOneWorker()
	switch {
	case err != nil:
		fs = append(fs, fmt.Sprintf("1-worker sweep: %v", err))
	case one.digest != outs[0].digest:
		fs = append(fs, "fleet summary at 1 worker differs from 2 workers")
	}
	return fs
}

// fig9Rep measures the paper's 72-cell matrix once.
func (b *bench) fig9Rep(tr *tracer, _ repKind) (*repOut, error) {
	sp := tr.start("harness.RunAll", nil, 1)
	t0 := time.Now()
	ev, err := harness.RunAll(b.env.prepped)
	wall := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return nil, err
	}
	return &repOut{wall: wall, latency: []float64{wall}, work: []float64{float64(len(ev.Results)) / wall},
		ops: 1, digest: digestResults(ev.Results), eval: ev}, nil
}

// fig9Check: the matrix is identical across reps, and untraced Measure
// agrees with the traced cells on every field but the trace aggregates.
func (b *bench) fig9Check(outs []*repOut) []string {
	fs := sameDigests(outs)
	got := outs[0].eval.Results
	i := 0
	for _, p := range b.env.prepped {
		for _, rt := range harness.Runtimes() {
			for _, pw := range harness.Powers() {
				m, err := harness.Measure(p.Net, p.Model, rt, pw, p.QuantInput())
				if err != nil {
					fs = append(fs, fmt.Sprintf("Measure %s/%s/%s: %v", p.Net, rt.Name(), pw.Name, err))
					i++
					continue
				}
				traced := got[i]
				traced.Commits, traced.WastedCycles, traced.WastedEnergyNJ = 0, 0, 0
				if !reflect.DeepEqual(m, traced) {
					fs = append(fs, fmt.Sprintf("Measure and MeasureTraced disagree on %s/%s/%s", p.Net, rt.Name(), pw.Name))
				}
				i++
			}
		}
	}
	return fs
}

// campaignRTs resolves campaignRuntimes to instances, with default
// executor settings throughout.
func campaignRTs() ([]core.Runtime, error) {
	var rts []core.Runtime
	for _, name := range campaignRuntimes() {
		if name == "broken" {
			rts = append(rts, intermittest.Broken{})
			continue
		}
		rt, err := fleet.RuntimeByName(name)
		if err != nil {
			return nil, err
		}
		rts = append(rts, rt)
	}
	return rts, nil
}

// brownoutRep runs the exhaustive WAR-armed brown-out campaign over both
// test models, one SweepRuntime per runtime (what Campaign does, spanned
// per runtime).
func (b *bench) brownoutRep(tr *tracer, _ repKind) (*repOut, error) {
	rts, err := campaignRTs()
	if err != nil {
		return nil, err
	}
	opt := intermittest.Options{Seed: modelSeed, CheckWAR: true, Workers: simWorkers}
	root := tr.start("brownout-campaign", nil, 1)
	defer root.end()
	out := &repOut{ops: 1}
	swept := 0
	t0 := time.Now()
	for _, m := range b.testModels {
		rep := &intermittest.Report{Seed: opt.Seed}
		for _, rt := range rts {
			sp := tr.start("intermittest.SweepRuntime "+rt.Name(), root, 1)
			rr, err := intermittest.SweepRuntime(m.qm, m.x, rt, opt)
			sp.end()
			if err != nil {
				return nil, err
			}
			rep.Runtimes = append(rep.Runtimes, rr)
			swept += rr.Swept
		}
		out.camp = append(out.camp, rep)
	}
	out.wall = time.Since(t0).Seconds()
	out.latency = []float64{out.wall}
	out.work = []float64{float64(swept) / out.wall}
	out.digest = digestBytes(mustJSON(out.camp))
	return out, nil
}

// brownoutCheck: verdicts are identical across reps; every protected
// runtime is CLEAN; base and broken are UNSAFE, broken at every boundary.
func (b *bench) brownoutCheck(outs []*repOut) []string {
	fs := sameDigests(outs)
	for _, rep := range outs[0].camp {
		for _, rr := range rep.Runtimes {
			switch rr.Runtime {
			case "base", "broken":
				if rr.Clean() {
					fs = append(fs, fmt.Sprintf("negative control %s came back CLEAN", rr.Runtime))
				}
				if rr.Runtime == "broken" && len(rr.WARBounds) != rr.Swept {
					fs = append(fs, fmt.Sprintf("broken flagged at %d of %d boundaries", len(rr.WARBounds), rr.Swept))
				}
			default:
				if !rr.Clean() || !rr.Exhaustive {
					fs = append(fs, "not clean and exhaustive: "+rr.Summary())
				}
			}
		}
	}
	return fs
}

// serveRep serves one open-loop window against a fresh server. Warm-up and
// timed reps are serveWindowS long, so each is followed closely by its
// reference-kernel samples; the traced pass's are longer, so its tail
// percentiles have enough samples. Every window draws its own arrival
// stream, so no window's jobs are dedup hits on another's.
func (b *bench) serveRep(tr *tracer, kind repKind) (*repOut, error) {
	seconds := b.sz.serveWindowS
	switch kind {
	case repBaseline:
		seconds = b.seconds
	case repTraced:
		seconds = b.sz.tracedServeS
	}
	arr := schedule(mix(b.seed, b.serveWindows), seconds, b.sz.serveRate)
	b.serveWindows++
	ph, err := runPhase(b.env.cache, arr, tr)
	if err != nil {
		return nil, err
	}
	out := &repOut{wall: ph.phaseS, latency: ph.latS, ops: ph.arrivals, phase: ph}
	for _, e := range ph.elapsedS {
		out.work = append(out.work, jobDevices/e)
	}
	h := sha256.New()
	for _, j := range ph.jobs {
		fmt.Fprintf(h, "%s %s\n", j.hash, j.summary)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// serveCheck: the windows' own gates, plus a seeded sample of finished
// jobs whose aggregates must byte-equal an in-process fleet.Run of the spec.
func (b *bench) serveCheck(outs []*repOut) []string {
	var fs []string
	var jobs []doneJob
	for _, o := range outs {
		fs = append(fs, o.phase.failures...)
		jobs = append(jobs, o.phase.jobs...)
	}
	rng := rand.New(rand.NewPCG(b.seed, 4))
	for _, k := range rng.Perm(len(jobs))[:min(b.sz.sampledJobs, len(jobs))] {
		var spec fleet.Spec
		if err := json.Unmarshal(jobs[k].body, &spec); err != nil {
			fs = append(fs, fmt.Sprintf("job %s: spec: %v", jobs[k].id, err))
			continue
		}
		res, err := fleet.Run(context.Background(), spec, b.env.models, simWorkers)
		if err != nil {
			fs = append(fs, fmt.Sprintf("job %s: in-process run: %v", jobs[k].id, err))
			continue
		}
		if string(mustJSON(res.Agg.Summary())) != string(jobs[k].summary) {
			fs = append(fs, fmt.Sprintf("job %s: served aggregates differ from an in-process fleet.Run", jobs[k].id))
		}
	}
	return fs
}

// sameDigests reports reps whose result differs from the first rep's.
func sameDigests(outs []*repOut) []string {
	var fs []string
	for i, o := range outs[1:] {
		if o.digest != outs[0].digest {
			fs = append(fs, fmt.Sprintf("rep %d result differs from rep 0", i+1))
		}
	}
	return fs
}

// digestResults hashes Fig. 9 cells canonically: section stats are
// written in sorted order and by value (fmt would print their pointers).
func digestResults(rs []harness.RunResult) string {
	h := sha256.New()
	for _, r := range rs {
		secs := r.Sections
		r.Sections = nil
		fmt.Fprintf(h, "%+v\n", r)
		keys := make([]string, 0, len(secs))
		byKey := make(map[string]string, len(secs))
		for k, v := range secs {
			key := k.Layer + "/" + string(k.Phase)
			keys = append(keys, key)
			byKey[key] = fmt.Sprintf("%+v", *v)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "  %s %s\n", k, byKey[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mix derives a stream seed from the run seed and a stream number
// (SplitMix64 finalizer).
func mix(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

//go:embed golden/seed1.json
var goldenSeed1 []byte

// goldenDigests returns the checked-in result digests of -seed 1 runs.
func goldenDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(goldenSeed1, &m); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return m, nil
}
