package harness

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
	"repro/internal/trace"
)

// fusedObservation extends diffObservation with the device-native
// wasted-work figure, which the fused path must also reproduce bit-exactly
// (it commits once per funded span instead of once per op).
type fusedObservation struct {
	diffObservation
	WastedNJ float64
}

// fusedRun executes one inference with every fast path allowed (scalar
// false) or on the Device.Scalar reference path (scalar true). Unlike
// diffRun it attaches no WAR shadow — a shadow tracker is one of the
// conditions that (correctly) disables fusion, so the fused path would
// never engage.
func fusedRun(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15,
	rt core.Runtime, power energy.System, scalar bool) fusedObservation {
	t.Helper()
	dev := mcu.New(power)
	dev.Scalar = scalar
	dev.TrackWasted(true)
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	logits, ierr := rt.Infer(img, qin)
	obs := fusedObservation{
		diffObservation: diffObservation{
			Logits: logits,
			Stats:  *dev.Stats(),
		},
		WastedNJ: dev.WastedNJ(),
	}
	if ierr != nil {
		if errors.Is(ierr, mcu.ErrDoesNotComplete) {
			obs.DNC = true
		} else {
			obs.Err = ierr.Error()
		}
	}
	return obs
}

// fusedPowers returns the power systems the fused oracle sweeps: the
// devirtualized kinds fusion engages on. Count-based fail schedules are
// deliberately absent — they are not bulk-fundable, so fusion never
// engages there (TestTapeInterpreterDifferential already covers them on
// the scalar path).
func fusedPowers() []struct {
	name string
	mk   func() energy.System
} {
	return []struct {
		name string
		mk   func() energy.System
	}{
		{"cont", func() energy.System { return energy.Continuous{} }},
		{"rf-100uF", func() energy.System {
			return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
		}},
		{"rf-1mF", func() energy.System {
			return energy.NewIntermittent(energy.Cap1mF, energy.ConstantHarvester{Watts: 10e-3})
		}},
	}
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
// MaxRegionOps, reboot count, dead time, and the wasted-work figure — to
// the same run on the Device.Scalar reference path.
//
// Like the bulk and corpus oracles, CI greps for each row's PASS line and
// rejects skips.
func TestFusedScalarDifferential(t *testing.T) {
	for _, row := range oracleRows() {
		row := row
		t.Run(row.label, func(t *testing.T) {
			for _, pw := range fusedPowers() {
				fused := fusedRun(t, row.m.qm, row.m.qin, row.rt, pw.mk(), false)
				scalar := fusedRun(t, row.m.qm, row.m.qin, row.rt, pw.mk(), true)
				diffCompare(t, pw.name, fused.diffObservation, scalar.diffObservation)
				if fused.WastedNJ != scalar.WastedNJ {
					t.Errorf("%s: WastedNJ diverges: fused=%v scalar=%v",
						pw.name, fused.WastedNJ, scalar.WastedNJ)
				}
			}
		})
	}
}

// TestTrackWastedMatchesTraceAnalysis pins the device-native wasted-work
// mirror to the trace subsystem's arithmetic: the same run observed
// through an analysis-only trace buffer (whose commits arrive one per
// scalar Progress or coalesced per fused span) must report the identical
// TotalWastedEnergyNJ, bit for bit, as a run using Device.TrackWasted.
// This is what lets fleet campaigns drop their per-device tracers without
// moving a single reported number.
func TestTrackWastedMatchesTraceAnalysis(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)

	for _, rt := range oracleRuntimes() {
		t.Run(rt.Name(), func(t *testing.T) {
			power := func() energy.System {
				return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
			}

			// Reference: tracer-attached run, trace analysis arithmetic.
			devT := mcu.New(power())
			buf := trace.NewAnalysisBuffer(256)
			devT.SetTracer(buf)
			imgT, err := core.Deploy(devT, qm)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if _, err := rt.Infer(imgT, qin); err != nil {
				t.Fatalf("traced infer: %v", err)
			}
			devT.FlushTrace()
			want := buf.Analysis().TotalWastedEnergyNJ

			// Device-native mirror on the fused path.
			devW := mcu.New(power())
			devW.TrackWasted(true)
			imgW, err := core.Deploy(devW, qm)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if _, err := rt.Infer(imgW, qin); err != nil {
				t.Fatalf("tracked infer: %v", err)
			}
			got := devW.WastedNJ()

			if got != want {
				t.Fatalf("wasted energy diverges: TrackWasted=%v trace analysis=%v", got, want)
			}
			if devT.Stats().Reboots != devW.Stats().Reboots {
				t.Fatalf("reboot count diverges: traced=%d tracked=%d",
					devT.Stats().Reboots, devW.Stats().Reboots)
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
		ref := fusedRun(t, qm, qin, rt, energy.Continuous{}, false)

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
// per-charge-cycle analysis, and how many events the device emitted.
type tracedObservation struct {
	res    RunResult
	logits []fixed.Q15
	a      *trace.Analysis
	events uint64
	err    error
}

// tracedRun measures one cell through an analysis-only trace buffer with
// every fast path allowed (scalar false) or on the Scalar reference path.
func tracedRun(net string, qm *dnn.QuantModel, qin []fixed.Q15,
	rt core.Runtime, pw PowerSpec, scalar bool) tracedObservation {
	buf := trace.NewAnalysisBuffer(256)
	res, logits, a, err := measureTraced(net, qm, rt, pw, qin, buf, scalar)
	return tracedObservation{res: res, logits: logits, a: a,
		events: uint64(buf.Len()) + buf.Drops(), err: err}
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
// per-section maps, commits, wasted cycles and energy), and every
// per-charge-cycle Analysis record — to the same traced run on the
// Device.Scalar reference path. Each runtime's "<runtime>" row
// covers the tiny model under the fused oracle's power systems and a
// prepared network under the paper's four; its "<runtime>-tape" row
// covers the adversarial CSR model under the fused oracle's power
// systems. SONIC and TAILS must actually fuse under the tracer (fewer
// events than the scalar walk), so the test cannot pass with fusion
// silently vetoed.
//
// CI greps for each row's PASS line under -race.
func TestTracedFusedDifferential(t *testing.T) {
	var fusedSpecs []PowerSpec
	for _, pw := range fusedPowers() {
		mk := pw.mk
		fusedSpecs = append(fusedSpecs, PowerSpec{Name: pw.name,
			New: func(uint64) energy.System { return mk() }})
	}
	type set struct {
		net    string
		qm     *dnn.QuantModel
		qin    []fixed.Q15
		powers []PowerSpec
	}
	p := prepQuick(t, "har")
	prepared := set{p.Net, p.Model, p.Model.QuantizeInput(p.Input), Powers()}

	for _, row := range oracleRows() {
		rt := row.rt
		sets := []set{{row.m.qm.Name, row.m.qm, row.m.qin, fusedSpecs}}
		if row.m.qm.Name == "tiny" {
			sets = append(sets, prepared)
		}
		t.Run(row.label, func(t *testing.T) {
			for _, set := range sets {
				fusedCells := 0
				for _, pw := range set.powers {
					cell := set.net + "/" + pw.Name
					fused := tracedRun(set.net, set.qm, set.qin, rt, pw, false)
					scalar := tracedRun(set.net, set.qm, set.qin, rt, pw, true)
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
