package harness

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
	"repro/internal/tails"
	"repro/internal/trace"
)

// fusedObservation extends diffObservation with the final nonvolatile
// memory image (nvImage).
type fusedObservation struct {
	diffObservation
	NV []int64
}

// nvRuntime runs a runtime's prepared form and records the device's
// FRAM regions from the atReboot hook, which every runtime calls once its
// set-up has allocated them. Reading those regions after the run gives
// the final nonvolatile memory image — including the regions a runtime
// releases before returning, such as the task runtime's redo log and
// control state, whose dead log words no other observation sees.
type nvRuntime struct {
	core.Runtime
	regions []*mem.Region
}

func (r *nvRuntime) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	p, err := r.Prepare(img)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return p.ResumeInfer(func() error {
		fram := img.Dev.FRAM
		r.regions = r.regions[:0]
		for i := 0; i < fram.Regions(); i++ {
			r.regions = append(r.regions, fram.RegionAt(i))
		}
		return nil
	})
}

// nvImage returns the recorded regions' words, concatenated in bank
// order.
func (r *nvRuntime) nvImage() []int64 {
	var out []int64
	for _, reg := range r.regions {
		out = append(out, reg.ROWords()...)
	}
	return out
}

// nvCompare asserts two final FRAM images are bit-identical, naming the
// first differing word.
func nvCompare(t *testing.T, label string, fused, scalar []int64) {
	t.Helper()
	if len(fused) != len(scalar) {
		t.Errorf("%s: FRAM image size diverges: fused=%d scalar=%d words", label, len(fused), len(scalar))
		return
	}
	for i := range fused {
		if fused[i] != scalar[i] {
			t.Errorf("%s: FRAM image diverges at word %d: fused=%d scalar=%d", label, i, fused[i], scalar[i])
			return
		}
	}
}

// fusedRun executes one inference with every fast path the power system
// allows (an energy.PerOp power selects the reference path). Unlike
// diffRun it attaches no WAR shadow — a shadow tracker is one of the
// conditions that (correctly) disables fusion, so the fused path would
// never engage.
func fusedRun(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15,
	rt core.Runtime, power energy.System) fusedObservation {
	t.Helper()
	dev := mcu.New(power)
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	nv := &nvRuntime{Runtime: rt}
	logits, ierr := nv.Infer(img, qin)
	return fusedObservation{observe(dev, logits, ierr), nv.nvImage()}
}

// fusedPower is one power system the fused oracles sweep. brownout marks
// a capacitor small enough that the loop-continuation runtimes
// (sonicFamily) must reboot under it on both corpus models.
type fusedPower struct {
	name     string
	mk       func() energy.System
	brownout bool
}

// fusedPowers returns the power systems the fused oracle sweeps: the
// devirtualized kinds fusion engages on. Count-based fail schedules are
// deliberately absent — they are not bulk-fundable, so fusion never
// engages there (TestTapeInterpreterDifferential already covers them on
// the scalar path). On the corpus models the whole SONIC and TAILS
// inference fits one 100 µF charge, so two smaller capacitors make the
// loop-continuation runtimes resume from fused commits with Pos > 0: at
// 12 µF sonic and tails on the tiny model, at 16 µF sonic on both models
// and ckpt-8 on the tiny model. No single capacitor from 8 to 40 µF
// covers all three (EXPERIMENTS.md, "One task body per tile pass").
func fusedPowers() []fusedPower {
	rf := func(farads float64) func() energy.System {
		return func() energy.System {
			return energy.NewIntermittent(energy.CapBank(farads), energy.ConstantHarvester{Watts: 1e-3})
		}
	}
	return []fusedPower{
		{name: "cont", mk: func() energy.System { return energy.Continuous{} }},
		{name: "rf-100uF", mk: rf(100e-6)},
		{name: "rf-1mF", mk: func() energy.System {
			return energy.NewIntermittent(energy.Cap1mF, energy.ConstantHarvester{Watts: 10e-3})
		}},
		{name: "rf-12uF", mk: rf(12e-6), brownout: true},
		{name: "rf-16uF", mk: rf(16e-6), brownout: true},
	}
}

// sonicFamily reports whether rt is a loop-continuation runtime, one
// whose inner loops run through sonic.Exec.Loop.
func sonicFamily(rt core.Runtime) bool {
	switch rt.Name() {
	case "sonic", "tails", "ckpt-8":
		return true
	}
	return false
}

// oracleRow is one oracle subtest: a runtime on one corpus model.
type oracleRow struct {
	label string
	m     corpusModel
	rt    core.Runtime
}

// oracleRows labels one row per runtime and corpus model: "<runtime>" on
// the tiny model, and "<runtime>-tape" on the adversarial CSR model, whose
// sparse layer drives the compiled tape's span-table train through every
// row shape.
func oracleRows() []oracleRow {
	models := corpusModels()
	var rows []oracleRow
	for _, rt := range oracleRuntimes() {
		rows = append(rows,
			oracleRow{rt.Name(), models[0], rt},
			oracleRow{rt.Name() + "-tape", models[1], rt})
	}
	return rows
}

// TestFusedScalarDifferential is the fused-kernel fast path's oracle: for
// every runtime on both corpus models (oracleRows), under continuous power
// and real capacitor/harvester brown-out cycles, a run with fused bulk
// kernels allowed must be bit-identical — logits, cycles,
// integer-picojoule energy, per-op counts, per-section stats,
// MaxRegionOps, reboot count, dead time, the wasted-work figure, and the
// final FRAM image — to the same run on the energy.PerOp reference path.
// Under the brownout capacitors the loop-continuation rows must reboot, so
// a fused commit that loses its cursor shows here as a divergence.
//
// Like the bulk and corpus oracles, CI greps for each row's PASS line and
// rejects skips.
func TestFusedScalarDifferential(t *testing.T) {
	for _, row := range oracleRows() {
		row := row
		t.Run(row.label, func(t *testing.T) {
			for _, pw := range fusedPowers() {
				fused := fusedRun(t, row.m.qm, row.m.qin, row.rt, pw.mk())
				scalar := fusedRun(t, row.m.qm, row.m.qin, row.rt, energy.PerOp{S: pw.mk()})
				diffCompare(t, pw.name, fused.diffObservation, scalar.diffObservation)
				nvCompare(t, pw.name, fused.NV, scalar.NV)
				if pw.brownout && sonicFamily(row.rt) && fused.Stats.Reboots == 0 {
					t.Errorf("%s: never rebooted, so no fused commit was resumed", pw.name)
				}
			}
		})
	}
}

// TestTrackWastedMatchesTraceAnalysis pins the device's own commit and
// wasted-work counters (Stats.Commits, WastedCycles, WastedNJ) to the
// trace subsystem's arithmetic: the same run observed through an
// analysis-only trace buffer (whose commits arrive one per scalar
// Progress or coalesced per fused span) must report the identical
// Commits, TotalWastedCycles and TotalWastedEnergyNJ, bit for bit — in
// the traced run's own Stats and in an untraced run's. It covers a
// capacitor (fused), the same capacitor on the energy.PerOp reference
// path, and a multi-brown-out FailSchedule, and a run of a runtime with
// durable progress points that completes through reboots must have
// committed. This is what lets RunAll and
// fleet campaigns attach no tracer without moving a reported number. CI
// greps for each runtime row's PASS line.
func TestTrackWastedMatchesTraceAnalysis(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	capacitor := func() energy.System {
		return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
	}

	for _, rt := range oracleRuntimes() {
		t.Run(rt.Name(), func(t *testing.T) {
			cont, _, err := measure("tiny", qm, rt, energy.Continuous{}, "cont", qin, nil)
			if err != nil {
				t.Fatal(err)
			}
			var total int
			for _, n := range cont.OpCount {
				total += int(n)
			}
			gaps := []int{total / 3, total / 4, total / 5}
			schedule := func() energy.System { return energy.NewFailSchedule(gaps) }
			wasted := 0
			for _, c := range []struct {
				label, name string
				mk          func() energy.System
			}{
				{"100uF", "100uF", capacitor},
				{"per-op-100uF", "100uF", func() energy.System { return energy.PerOp{S: capacitor()} }},
				{fmt.Sprintf("fail%v", gaps), fmt.Sprintf("fail%v", gaps), schedule},
			} {
				label := c.label
				buf := trace.NewAnalysisBuffer(256)
				traced, _, terr := measure("tiny", qm, rt, c.mk(), c.name, qin, buf)
				a := buf.Analysis()
				plain, _, perr := measure("tiny", qm, rt, c.mk(), c.name, qin, nil)
				if terr != nil || perr != nil {
					t.Fatalf("%s: traced: %v, untraced: %v", label, terr, perr)
				}
				for _, r := range []struct {
					name string
					res  RunResult
				}{{"traced", traced}, {"untraced", plain}} {
					if r.res.Commits != a.Commits || r.res.WastedCycles != a.TotalWastedCycles ||
						r.res.WastedEnergyNJ != a.TotalWastedEnergyNJ || r.res.Reboots != a.Reboots {
						t.Errorf("%s: %s Stats commits/wasted cycles/wasted nJ/reboots = %d/%d/%v/%d, trace analysis %d/%d/%v/%d",
							label, r.name, r.res.Commits, r.res.WastedCycles, r.res.WastedEnergyNJ, r.res.Reboots,
							a.Commits, a.TotalWastedCycles, a.TotalWastedEnergyNJ, a.Reboots)
					}
				}
				// Base has no durable progress point: it completes through
				// reboots only once the schedule's power turns continuous.
				if rt.Name() != "base" && plain.Completed && plain.Reboots > 0 && plain.Commits == 0 {
					t.Errorf("%s: completed through %d reboots with no commits", label, plain.Reboots)
				}
				if plain.WastedCycles > 0 {
					wasted++
				}
			}
			if wasted == 0 {
				t.Error("no power system wasted any work; the row compares nothing but zeros")
			}
		})
	}
}

// flattenFRAM reads a snapshot's contents back through a structurally
// identical scratch bank (snapshots are opaque) and returns them as one
// flat word list.
func flattenFRAM(t *testing.T, snap *mem.Snapshot, qm *dnn.QuantModel) []int64 {
	t.Helper()
	dev := mcu.New(energy.Continuous{})
	if _, err := core.Deploy(dev, qm); err != nil {
		t.Fatalf("scratch deploy: %v", err)
	}
	if err := snap.RestoreTo(dev.FRAM); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var out []int64
	for i := 0; i < dev.FRAM.Regions(); i++ {
		out = append(out, dev.FRAM.RegionAt(i).Words()...)
	}
	return out
}

// putCounter counts every OnPut an observed bank delivers.
type putCounter struct{ n int64 }

func (c *putCounter) OnPut(*mem.Region, int, int64) { c.n++ }

// TestFusedSnapshotCOWAndObserver is the regression guard for the two
// sharing contracts raw-word kernels could silently break:
//
//  1. Bank snapshots are copies (COW against *previous snapshots*, never
//     against live words), so fused writes through Region.Words must not
//     alter any existing snapshot's contents.
//  2. An attached PutObserver must see every store — so the fused path
//     must disqualify itself and every store must route through Put.
func TestFusedSnapshotCOWAndObserver(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	rt := sonic.SONIC{}

	t.Run("snapshot-cow", func(t *testing.T) {
		dev := mcu.New(energy.Continuous{})
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		snap0 := dev.FRAM.Snapshot(nil, nil)
		if _, err := rt.Infer(img, qin); err != nil {
			t.Fatalf("infer: %v", err)
		}
		// snap1 shares every page unchanged since snap0 (the weights) with
		// snap0's storage.
		snap1 := dev.FRAM.Snapshot(snap0, nil)
		want0 := flattenFRAM(t, snap0, qm)
		want1 := flattenFRAM(t, snap1, qm)

		// A second fused inference rewrites activations and accumulators
		// in place through raw backing slices.
		if _, err := rt.Infer(img, qin); err != nil {
			t.Fatalf("second infer: %v", err)
		}
		if got := flattenFRAM(t, snap0, qm); !reflect.DeepEqual(got, want0) {
			t.Error("fused run mutated the pre-run snapshot")
		}
		if got := flattenFRAM(t, snap1, qm); !reflect.DeepEqual(got, want1) {
			t.Error("fused run mutated the mid-train snapshot")
		}
	})

	t.Run("put-observer", func(t *testing.T) {
		ref := fusedRun(t, qm, qin, rt, energy.Continuous{})

		dev := mcu.New(energy.Continuous{})
		ctr := &putCounter{}
		dev.FRAM.SetObserver(ctr)
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		logits, err := rt.Infer(img, qin)
		if err != nil {
			t.Fatalf("infer: %v", err)
		}
		if !reflect.DeepEqual(logits, ref.Logits) {
			t.Errorf("observer fallback changed logits: got %v want %v", logits, ref.Logits)
		}
		stores := dev.Stats().OpCount[mcu.OpStoreFRAM]
		if ctr.n < stores {
			t.Errorf("observer missed stores: saw %d puts, device charged %d FRAM stores",
				ctr.n, stores)
		}
	})
}

// tracedObservation is one analysis-traced run as RunAll measures it: the
// full RunResult with the trace aggregates filled in, the logits, the
// per-charge-cycle analysis, how many events the device emitted, and the
// final FRAM image.
type tracedObservation struct {
	res    RunResult
	logits []fixed.Q15
	a      *trace.Analysis
	events uint64
	nv     []int64
	err    error
}

// tracedRun measures one cell through an analysis-only trace buffer with
// every fast path power allows (an energy.PerOp power is the reference
// path).
func tracedRun(net string, qm *dnn.QuantModel, qin []fixed.Q15,
	rt core.Runtime, power energy.System, name string) tracedObservation {
	buf := trace.NewAnalysisBuffer(256)
	nv := &nvRuntime{Runtime: rt}
	res, logits, err := measure(net, qm, nv, power, name, qin, buf)
	a := buf.Analysis()
	return tracedObservation{res: res, logits: logits, a: a,
		events: uint64(buf.Len()) + buf.Drops(), nv: nv.nvImage(), err: err}
}

// tracedCompare asserts two traced observations are bit-identical.
func tracedCompare(t *testing.T, label string, fused, scalar tracedObservation) {
	t.Helper()
	if (fused.err == nil) != (scalar.err == nil) ||
		(fused.err != nil && fused.err.Error() != scalar.err.Error()) {
		t.Errorf("%s: outcome diverges: fused=%v scalar=%v", label, fused.err, scalar.err)
	}
	if !reflect.DeepEqual(fused.logits, scalar.logits) {
		t.Errorf("%s: logits diverge: fused=%v scalar=%v", label, fused.logits, scalar.logits)
	}
	if !reflect.DeepEqual(fused.res.Sections, scalar.res.Sections) {
		t.Errorf("%s: per-section stats diverge", label)
	}
	fr, sr := fused.res, scalar.res
	fr.Sections, sr.Sections = nil, nil
	if !reflect.DeepEqual(fr, sr) {
		t.Errorf("%s: RunResult diverges:\n fused  %+v\n scalar %+v", label, fr, sr)
	}
	nvCompare(t, label, fused.nv, scalar.nv)
	if fc, sc := fused.a.Cycles, scalar.a.Cycles; !reflect.DeepEqual(fc, sc) {
		i := 0
		for i < len(fc) && i < len(sc) && reflect.DeepEqual(fc[i], sc[i]) {
			i++
		}
		t.Errorf("%s: per-charge-cycle analysis diverges at cycle %d (%d vs %d cycles)", label, i, len(fc), len(sc))
		if i < len(fc) && i < len(sc) {
			t.Errorf("  fused  %+v\n  scalar %+v", fc[i], sc[i])
		}
	}
}

// TestTracedFusedDifferential is the oracle for tracing at fused speed: a
// run observed by an analysis-only trace buffer (as every RunAll cell is)
// keeps the fused kernels engaged, each funded span emitting one coalesced
// commit, and must be bit-identical — logits, the full RunResult (stats,
// per-section maps, commits, wasted cycles and energy), every
// per-charge-cycle Analysis record, and the final FRAM image — to the same
// traced run on the energy.PerOp reference path. Each runtime's "<runtime>" row
// covers the tiny model under the fused oracle's power systems and a
// prepared network under the paper's four; its "<runtime>-tape" row
// covers the adversarial CSR model under the fused oracle's power
// systems. SONIC and TAILS must actually fuse under the tracer (fewer
// events than the scalar walk), so the test cannot pass with fusion
// silently vetoed.
//
// CI greps for each row's PASS line under -race.
func TestTracedFusedDifferential(t *testing.T) {
	type set struct {
		net    string
		qm     *dnn.QuantModel
		qin    []fixed.Q15
		powers []fusedPower
	}
	p := prepQuick(t, "har")
	var paper []fusedPower
	for _, pw := range Powers() {
		paper = append(paper, fusedPower{name: pw.Name, mk: pw.Make})
	}
	prepared := set{p.Net, p.Model, p.Model.QuantizeInput(p.Input), paper}

	for _, row := range oracleRows() {
		rt := row.rt
		sets := []set{{row.m.qm.Name, row.m.qm, row.m.qin, fusedPowers()}}
		if row.m.qm.Name == "tiny" {
			sets = append(sets, prepared)
		}
		t.Run(row.label, func(t *testing.T) {
			for _, set := range sets {
				fusedCells := 0
				for _, pw := range set.powers {
					cell := set.net + "/" + pw.name
					fused := tracedRun(set.net, set.qm, set.qin, rt, pw.mk(), pw.name)
					scalar := tracedRun(set.net, set.qm, set.qin, rt, energy.PerOp{S: pw.mk()}, pw.name)
					tracedCompare(t, cell, fused, scalar)
					if fused.events < scalar.events {
						fusedCells++
					}
				}
				if name := rt.Name(); (name == "sonic" || name == "tails") && fusedCells == 0 {
					t.Errorf("%s: fusion never engaged under the analysis tracer", set.net)
				}
			}
		})
	}
}

// TestFig9RealNetworksFusedScalar is the fused-vs-reference oracle on the
// paper's Fig. 9 matrix itself: every untraced Measure cell — the three
// evaluation networks in quick mode × the six Fig. 9 runtimes × the four
// paper powers, 72 cells — must be bit-identical, full RunResult, logits
// and final FRAM image, to the same cell measured on the energy.PerOp
// reference path. CI greps for its PASS line.
func TestFig9RealNetworksFusedScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network Fig. 9 matrix needs quick-mode GENESIS preparation")
	}
	cells := 0
	for _, net := range Networks() {
		p := prepQuick(t, net)
		qin := p.Model.QuantizeInput(p.Input)
		for _, rt := range Runtimes() {
			for _, pw := range Powers() {
				cell := net + "/" + rt.Name() + "/" + pw.Name
				fnv, snv := &nvRuntime{Runtime: rt}, &nvRuntime{Runtime: rt}
				fused, fl, err := measure(net, p.Model, fnv, pw.Make(), pw.Name, qin, nil)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				scalar, sl, err := measure(net, p.Model, snv, energy.PerOp{S: pw.Make()}, pw.Name, qin, nil)
				if err != nil {
					t.Fatalf("%s: scalar: %v", cell, err)
				}
				nvCompare(t, cell, fnv.nvImage(), snv.nvImage())
				if !reflect.DeepEqual(fl, sl) {
					t.Errorf("%s: logits diverge: fused=%v scalar=%v", cell, fl, sl)
				}
				if !reflect.DeepEqual(fused, scalar) {
					t.Errorf("%s: RunResult diverges:\n fused  %+v\n scalar %+v", cell, fused, scalar)
				}
				cells++
			}
		}
	}
	if cells != 72 {
		t.Fatalf("swept %d Fig. 9 cells, want 72", cells)
	}
}

// TestFusedFraction pins how much of a run the fused path carries, as
// Device.FusedOps counts it: on the tiny model, the Tile-N task runtime
// and the loop-continuation family (SONIC, ckpt-8, TAILS) must fund more
// than their row's floor of all charged ops through ChargeTrain under
// continuous power and a real capacitor, and exactly none on the
// energy.PerOp reference path or under an op-count fault injector
// (energy.FailSchedule, which CanFuse refuses: brown-out replays never
// fuse). CI greps for each row's PASS line. Every row also pins the exact
// fused and total op counts under cont and rf-100uF: a tile plan must fuse
// exactly the dispatches the per-inference planning walk did, and a
// loop-continuation loop that silently stops fusing (which the bit-exact
// oracles cannot see) moves its row's counts.
func TestFusedFraction(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	run := func(rt core.Runtime, power energy.System) (fused, total, maxRegion int64) {
		dev := mcu.New(power)
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		if _, err := rt.Infer(img, qin); err != nil && !errors.Is(err, mcu.ErrDoesNotComplete) {
			t.Fatalf("infer: %v", err)
		}
		st := dev.Stats()
		for _, n := range st.OpCount {
			total += n
		}
		return dev.FusedOps(), total, st.MaxRegionOps
	}
	type counts struct{ fused, total int64 }
	rows := []struct {
		rt    core.Runtime
		floor float64
		exact map[string]counts // by power; nil: floor only
	}{
		{baseline.Tile{TileSize: 8}, 0.80, map[string]counts{"cont": {3048, 3050}, "rf-100uF": {2678, 3138}}},
		{baseline.Tile{TileSize: 32}, 0.85, map[string]counts{"cont": {2654, 2656}, "rf-100uF": {2494, 2816}}},
		{baseline.Tile{TileSize: 128}, 0.85, map[string]counts{"cont": {2608, 2610}, "rf-100uF": {2534, 2937}}},
		{sonic.SONIC{}, 0.90, map[string]counts{"cont": {1264, 1320}, "rf-100uF": {1264, 1320}}},
		{checkpoint.Checkpoint{Interval: 8}, 0.60, map[string]counts{"cont": {3674, 5480}, "rf-100uF": {3516, 5513}}},
		{tails.TAILS{}, 0.70, map[string]counts{"cont": {1126, 1541}, "rf-100uF": {1126, 1541}}},
	}
	for _, row := range rows {
		t.Run(row.rt.Name(), func(t *testing.T) {
			var maxRegion int64
			for _, pw := range fusedPowers() {
				if pw.name != "cont" && pw.name != "rf-100uF" {
					continue
				}
				fused, total, mr := run(row.rt, pw.mk())
				maxRegion = max(maxRegion, mr)
				frac := float64(fused) / float64(total)
				t.Logf("%s: %d of %d ops fused (%.3f)", pw.name, fused, total, frac)
				if frac <= row.floor {
					t.Errorf("%s: fused fraction %.3f, want > %.2f", pw.name, frac, row.floor)
				}
				if want, ok := row.exact[pw.name]; ok && want != (counts{fused, total}) {
					t.Errorf("%s: %d of %d ops fused, want %d of %d", pw.name, fused, total, want.fused, want.total)
				}
				if fused, _, _ := run(row.rt, energy.PerOp{S: pw.mk()}); fused != 0 {
					t.Errorf("%s: PerOp run fused %d ops, want 0", pw.name, fused)
				}
			}
			gap := int(2*maxRegion) + 50
			if fused, _, _ := run(row.rt, energy.NewFailSchedule([]int{gap, gap, gap})); fused != 0 {
				t.Errorf("FailSchedule run fused %d ops, want 0", fused)
			}
		})
	}
}

// TestTileRealNetFusedFraction measures how much of a Tile-N inference on
// the paper's networks the fused path carries: quick mnist, har and okg ×
// tile-8/32/128 under continuous power. Each cell must fuse at least its
// floor of ops (the counts fused while short chunks, privatized
// re-writes, pool and pruned-conv passes ran per op), the totals must not
// move, and mnist tile-128 must fuse at least 95%. Skipped by -short; CI
// greps for its PASS line.
func TestTileRealNetFusedFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network tile cells need quick-mode GENESIS preparation")
	}
	type counts struct{ fused, total int64 }
	floors := map[string]counts{
		"mnist/tile-8": {2879316, 2909886}, "mnist/tile-32": {2557706, 2588446}, "mnist/tile-128": {1428562, 2286722},
		"har/tile-8": {70418, 106322}, "har/tile-32": {65532, 92720}, "har/tile-128": {64348, 87062},
		"okg/tile-8": {435796, 585648}, "okg/tile-32": {374580, 517450}, "okg/tile-128": {354872, 497914},
	}
	for _, net := range Networks() {
		p := prepQuick(t, net)
		qin := p.Model.QuantizeInput(p.Input)
		for _, k := range []int{8, 32, 128} {
			cell := fmt.Sprintf("%s/tile-%d", net, k)
			dev := mcu.New(energy.Continuous{})
			img, err := core.Deploy(dev, p.Model)
			if err != nil {
				t.Fatalf("%s: deploy: %v", cell, err)
			}
			if _, err := (baseline.Tile{TileSize: k}).Infer(img, qin); err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			var total int64
			for _, n := range dev.Stats().OpCount {
				total += n
			}
			fused := dev.FusedOps()
			frac := float64(fused) / float64(total)
			t.Logf("%s: %d of %d ops fused (%.3f)", cell, fused, total, frac)
			if fl := floors[cell]; fused < fl.fused || total != fl.total {
				t.Errorf("%s: %d of %d ops fused, want at least %d of %d", cell, fused, total, fl.fused, fl.total)
			}
			if cell == "mnist/tile-128" && frac < 0.95 {
				t.Errorf("%s: fused fraction %.3f, want >= 0.95", cell, frac)
			}
		}
	}
}
