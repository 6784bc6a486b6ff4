package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/trace"
)

// layers accumulates the traced pass's per-layer metrics and the names of
// percentiles reported with fewer than minBeyond samples beyond them.
type layers struct {
	vals map[string]float64
	thin []string
}

func (l *layers) set(name string, v float64) { l.vals[name] = v }

// pct sets a percentile metric, noting it when too few samples back it.
func (l *layers) pct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		l.thin = append(l.thin, fmt.Sprintf("%s (n=%d)", name, len(xs)))
	}
	l.set(name, v)
}

// tracedPass measures every layer with spans on: a traced cold set-up,
// then for each workload an untraced rep (heap peak, overhead base) and a
// traced rep, then the probes that time single layers on their own. It
// returns the layer metrics and any correctness failures it met.
func (b *bench) tracedPass(ws map[string]*workload, tr *tracer, workDir string) (*layers, []string, error) {
	l := &layers{vals: make(map[string]float64)}
	var fails []string

	runtime.GC()
	e, err := setupOnce(workDir+"/traced-setup", tr)
	if err != nil {
		return nil, nil, err
	}
	l.set("genesis.prepare_s", e.prepareS)
	l.set("dnn.train_epochs", float64(e.trainEpochs))
	l.set("serve.warmup_s", e.warmupS)

	traced := make(map[string]*repOut)
	for _, name := range workloadNames {
		w := ws[name]
		runtime.GC()
		stop := sampleHeap()
		base, err := w.rep(nil, repBaseline)
		peak := stop()
		if err != nil {
			return nil, nil, fmt.Errorf("%s untraced rep: %w", name, err)
		}
		runtime.GC()
		out, err := w.rep(tr, repTraced)
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced rep: %w", name, err)
		}
		l.set("go.heap_peak_mb."+name, peak)
		l.set("bench.trace_overhead."+name, median(out.latency)/median(base.latency))
		traced[name] = out
		if out.phase != nil {
			fails = append(fails, base.phase.failures...)
			fails = append(fails, out.phase.failures...)
		}
	}

	spans := make(map[string]spanTotals)
	for _, st := range tr.totals() {
		spans[st.Name] = st
	}
	if err := b.fleetLayers(l, traced[wFleet], spans); err != nil {
		return nil, nil, err
	}
	if err := b.inferLayers(l, tr); err != nil {
		return nil, nil, err
	}
	if err := b.harnessLayers(l, tr, traced[wFig9]); err != nil {
		return nil, nil, err
	}
	if err := b.intermittestLayers(l, tr, traced[wBrownout], spans); err != nil {
		return nil, nil, err
	}
	serveLayers(l, traced[wServe].phase)
	return l, fails, nil
}

// sampleHeap samples the live heap every millisecond until the returned
// function is called, which returns the peak in MB. It reads
// runtime/metrics, which does not stop the world.
func sampleHeap() func() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var p uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p = max(p, s[0].Value.Uint64())
			select {
			case <-done:
				peak <- p
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / 1e6
	}
}

// fleetLayers: provisioning counters of the traced 2-worker sweep, its
// campaign set-up and summary spans, and the 1-worker sweep for per-device
// cost, allocation and parallel efficiency.
func (b *bench) fleetLayers(l *layers, out *repOut, spans map[string]spanTotals) error {
	pr := out.fleet.Provision
	l.set("fleet.restores", float64(pr.Restores))
	l.set("fleet.pages_copied", float64(pr.PagesCopied))
	l.set("fleet.pages_clean", float64(pr.PagesClean))
	l.set("fleet.pages_skipped", float64(pr.PagesSkipped))
	l.set("fleet.slot_deploys", float64(pr.SlotDeploys))
	l.set("fleet.new_campaign_ms", spans["fleet.NewCampaign"].TotalMS)
	l.set("fleet.summary_ms", spans["fleet.Aggregates.Summary"].TotalMS)

	one, alloc, err := b.fleetOneWorker()
	if err != nil {
		return fmt.Errorf("1-worker sweep: %w", err)
	}
	devices := float64(out.fleet.Agg.Devices)
	ops := float64(one.fleet.Agg.Ops)
	l.set("fleet.host_ns_per_op", one.wall*1e9/ops)
	l.set("fleet.ops_per_device", ops/devices)
	l.set("fleet.alloc_bytes_per_device", float64(alloc)/devices)
	l.set("fleet.run_1w_devices_per_s", one.work[0])
	l.set("fleet.parallel_efficiency", out.work[0]/(simWorkers*one.work[0]))
	return nil
}

// inferLayers times Runtime.Infer per charged op on devices built the way
// a fresh fleet device is (mcu.New, TrackWasted, core.Deploy), per cell of
// the fleet grid, and core.Deploy per network.
func (b *bench) inferLayers(l *layers, tr *tracer) error {
	root := tr.start("infer probes", nil, 1)
	defer root.end()
	rng := rand.New(rand.NewPCG(b.seed, 5))
	spec := fleetSpec(1, b.seed)
	for _, net := range harness.Networks() {
		m := b.env.models[net]
		var deployNS float64
		for _, rtName := range fleetRuntimes {
			rt, err := fleet.RuntimeByName(rtName)
			if err != nil {
				return err
			}
			for _, pc := range spec.Powers {
				cell := tr.start("infer "+net+"/"+rtName+"/"+pc.Name, root, 1)
				var ns, ops float64
				for d := 0; d < b.sz.inferDevices; d++ {
					power, err := pc.New(rng.Uint64())
					if err != nil {
						return err
					}
					dev := mcu.New(power)
					dev.TrackWasted(true)
					t0 := time.Now()
					img, err := core.Deploy(dev, m.QM)
					t1 := time.Now()
					if err != nil {
						return err
					}
					if _, err := rt.Infer(img, m.Input); err != nil && !errors.Is(err, mcu.ErrDoesNotComplete) {
						return fmt.Errorf("infer %s/%s/%s: %w", net, rtName, pc.Name, err)
					}
					ns += float64(time.Since(t1))
					deployNS += float64(t1.Sub(t0))
					for _, n := range dev.Stats().OpCount {
						ops += float64(n)
					}
				}
				cell.end()
				l.set("infer."+net+"."+rtName+"."+pc.Name+".ns_per_op", ns/ops)
			}
		}
		l.set("core.deploy_ms."+net, deployNS/1e6/float64(len(fleetRuntimes)*len(spec.Powers)*b.sz.inferDevices))
	}
	return nil
}

// harnessLayers times every Fig. 9 cell serially through MeasureTraced
// (RunAll's path) and untraced Measure, summed per runtime.
func (b *bench) harnessLayers(l *layers, tr *tracer, out *repOut) error {
	root := tr.start("harness probes", nil, 1)
	defer root.end()
	tracedMS := make(map[string]float64)
	plainMS := make(map[string]float64)
	var sumTraced, sumPlain float64
	for _, p := range b.env.prepped {
		in := p.QuantInput()
		for _, rt := range harness.Runtimes() {
			for _, pw := range harness.Powers() {
				sp := tr.start("harness.MeasureTraced "+rt.Name(), root, 1)
				t0 := time.Now()
				_, _, err := harness.MeasureTraced(p.Net, p.Model, rt, pw, in, trace.NewAnalysisBuffer(1024))
				d := ms(time.Since(t0))
				sp.end()
				if err != nil {
					return err
				}
				tracedMS[rt.Name()] += d
				sumTraced += d

				sp = tr.start("harness.Measure "+rt.Name(), root, 1)
				t0 = time.Now()
				_, err = harness.Measure(p.Net, p.Model, rt, pw, in)
				d = ms(time.Since(t0))
				sp.end()
				if err != nil {
					return err
				}
				plainMS[rt.Name()] += d
				sumPlain += d
			}
		}
	}
	for _, rt := range fig9Runtimes() {
		l.set("harness.measure_traced_ms."+rt, tracedMS[rt])
		l.set("harness.measure_ms."+rt, plainMS[rt])
	}
	l.set("harness.trace_overhead", sumTraced/sumPlain)
	// RunAll fans cells out over GOMAXPROCS goroutines, which run pins.
	l.set("harness.parallel_efficiency", sumTraced/1e3/(simWorkers*out.wall))
	dnc := 0
	for _, r := range out.eval.Results {
		if !r.Completed {
			dnc++
		}
	}
	l.set("harness.dnc_cells", float64(dnc))
	return nil
}

// intermittestLayers: per runtime, the traced campaign's sweep time, the
// golden (recording) run, and the mean Check over a seeded boundary
// sample, all over both test models.
func (b *bench) intermittestLayers(l *layers, tr *tracer, out *repOut, spans map[string]spanTotals) error {
	rts, err := campaignRTs()
	if err != nil {
		return err
	}
	bounds, unsafe := 0, 0
	for _, rep := range out.camp {
		for _, rr := range rep.Runtimes {
			bounds += rr.Swept
			unsafe += unsafeBoundaries(rr)
		}
	}
	l.set("intermittest.boundaries", float64(bounds))
	l.set("intermittest.unsafe_boundaries", float64(unsafe))

	root := tr.start("intermittest probes", nil, 1)
	defer root.end()
	opt := intermittest.Options{Seed: modelSeed, CheckWAR: true}
	rng := rand.New(rand.NewPCG(b.seed, 6))
	for _, rt := range rts {
		name := rt.Name()
		l.set("intermittest."+name+".sweep_ms", spans["intermittest.SweepRuntime "+name].TotalMS)
		var goldenMS, checkUS float64
		checks := 0
		for _, m := range b.testModels {
			sp := tr.start("intermittest.NewCheckerOpt "+name, root, 1)
			t0 := time.Now()
			c, err := intermittest.NewCheckerOpt(m.qm, m.x, rt, opt)
			goldenMS += ms(time.Since(t0))
			sp.end()
			if err != nil {
				return err
			}
			sp = tr.start("intermittest.Checker.Check "+name, root, 1)
			for k := 0; k < b.sz.checkSample/len(b.testModels); k++ {
				gaps := []int{1 + rng.IntN(int(c.TotalOps()))}
				t0 := time.Now()
				c.Check(gaps)
				checkUS += float64(time.Since(t0)) / 1e3
				checks++
			}
			sp.end()
		}
		l.set("intermittest."+name+".golden_ms", goldenMS)
		l.set("intermittest."+name+".check_us", checkUS/float64(checks))
	}
	return nil
}

// unsafeBoundaries counts the boundaries at which a runtime failed any
// check: a logit mismatch, a failure to complete, a WAR hazard, or an
// error (which the sweep records instead of the other verdicts).
func unsafeBoundaries(rr *intermittest.RuntimeReport) int {
	bad := make(map[int]bool)
	for _, m := range rr.Mismatches {
		bad[m.Boundary] = true
	}
	for _, b := range rr.DNC {
		bad[b] = true
	}
	for _, b := range rr.WARBounds {
		bad[b] = true
	}
	return len(bad) + len(rr.Errors)
}

// serveLayers: the traced phase's client- and server-side readings.
func serveLayers(l *layers, ph *phaseOut) {
	l.pct("serve.submit_ms_p50", ph.submitMS, 0.50)
	l.pct("serve.submit_ms_p90", ph.submitMS, 0.90)
	l.pct("serve.dedup_ms_p50", ph.dedupMS, 0.50)
	l.set("serve.dedup_ms_max", maxOf(ph.dedupMS))
	l.pct("serve.get_ms_p50", ph.getMS, 0.50)
	l.pct("serve.queue_wait_ms_p50", ph.queueMS, 0.50)
	l.pct("serve.queue_wait_ms_p90", ph.queueMS, 0.90)
	l.pct("serve.run_ms_p50", ph.runMS, 0.50)
	l.pct("serve.run_ms_p90", ph.runMS, 0.90)
	l.set("serve.backlog_max", float64(ph.backlogMax))
	l.set("serve.backlog_end", float64(ph.backlogEnd))
	l.set("serve.busy_frac", ph.stats.BusySeconds/ph.phaseS)
	l.set("serve.devices_per_s", ph.stats.DevicesPerSec)
	l.pct("loadgen.late_ms_p90", ph.lateMS, 0.90)
	l.set("loadgen.late_ms_max", maxOf(ph.lateMS))
	l.set("loadgen.polls", float64(len(ph.getMS)))
}
