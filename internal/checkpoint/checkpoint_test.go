package checkpoint

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

func buildModel(t testing.TB) (*dnn.QuantModel, []dataset.Example) {
	t.Helper()
	ds := dataset.HAR(3, 240, 12)
	n := dnn.HARNet(3)
	cfg := dnn.DefaultTrainConfig()
	cfg.Epochs = 2
	dnn.Train(n, ds, cfg)
	n.Layers[0].(*dnn.Conv).Prune(0.03)
	n.Layers[3] = dnn.NewSparseDense(n.Layers[3].(*dnn.Dense), 0.02)
	qm, err := dnn.Quantize(n, [][]float64{ds.Train[0].X, ds.Train[1].X})
	if err != nil {
		t.Fatal(err)
	}
	return qm, ds.Test
}

func assertEqualQ(t *testing.T, got, want []fixed.Q15, ctx string) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: logit %d: got %d, want %d", ctx, i, got[i], want[i])
		}
	}
}

func TestMatchesHostReference(t *testing.T) {
	qm, ex := buildModel(t)
	dev := mcu.New(energy.Continuous{})
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 64, 256} {
		qin := qm.QuantizeInput(ex[0].X)
		got, err := Checkpoint{Interval: k}.Infer(img, qin)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualQ(t, got, qm.Forward(qin), "continuous")
	}
}

func TestIntervalValidation(t *testing.T) {
	qm, ex := buildModel(t)
	dev := mcu.New(energy.Continuous{})
	img, _ := core.Deploy(dev, qm)
	if _, err := (Checkpoint{Interval: 1}).Infer(img, qm.QuantizeInput(ex[0].X)); err == nil {
		t.Error("interval 1 should be rejected")
	}
}

// Correctness under failure injection: re-execution from a stale checkpoint
// must reproduce the continuous-power result exactly.
func TestCorrectUnderFailureInjection(t *testing.T) {
	qm, ex := buildModel(t)
	qin := qm.QuantizeInput(ex[0].X)
	want := qm.Forward(qin)
	for _, k := range []int{4, 32} {
		for _, period := range []int{311, 1511, 6007} {
			dev := mcu.New(energy.NewFailAfterOps(period, period))
			img, err := core.Deploy(dev, qm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Checkpoint{Interval: k}.Infer(img, qin)
			if err != nil {
				t.Fatalf("k=%d period=%d: %v", k, period, err)
			}
			assertEqualQ(t, got, want, "injected")
			if dev.Stats().Reboots == 0 {
				t.Errorf("k=%d period=%d: expected reboots", k, period)
			}
		}
	}
}

// Property over random intervals and failure periods.
func TestEquivalenceProperty(t *testing.T) {
	qm, ex := buildModel(t)
	qin := qm.QuantizeInput(ex[1].X)
	want := qm.Forward(qin)
	f := func(seed uint32) bool {
		k := 2 + int(seed%100)
		period := 400 + int(seed/7%6000)
		dev := mcu.New(energy.NewFailAfterOps(period, period))
		img, err := core.Deploy(dev, qm)
		if err != nil {
			return false
		}
		got, err := Checkpoint{Interval: k}.Infer(img, qin)
		if errors.Is(err, mcu.ErrDoesNotComplete) {
			return true // large k + small budget legitimately hangs
		}
		if err != nil {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The §2 tradeoff: frequent checkpoints cost dump overhead on continuous
// power; sparse checkpoints waste re-executed work on intermittent power.
// SONIC beats both ends.
func TestTaskBasedBeatsCheckpointing(t *testing.T) {
	qm, ex := buildModel(t)
	qin := qm.QuantizeInput(ex[0].X)
	run := func(rt core.Runtime, p energy.System) (float64, error) {
		dev := mcu.New(p)
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatal(err)
		}
		_, ierr := rt.Infer(img, qin)
		return dev.Stats().EnergyNJ(), ierr
	}

	sonicE, err := run(sonic.SONIC{}, energy.Continuous{})
	if err != nil {
		t.Fatal(err)
	}
	ckptSmall, err := run(Checkpoint{Interval: 4}, energy.Continuous{})
	if err != nil {
		t.Fatal(err)
	}
	if ckptSmall <= sonicE {
		t.Errorf("frequent checkpointing (%v) should cost more than SONIC (%v)", ckptSmall, sonicE)
	}

	// Intermittent power: wasted re-execution makes large intervals pay.
	rf := func() energy.System {
		return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: energy.DefaultRFWatts})
	}
	sonicI, err := run(sonic.SONIC{}, rf())
	if err != nil {
		t.Fatal(err)
	}
	ckptLarge, err := run(Checkpoint{Interval: 128}, rf())
	if err != nil {
		t.Fatal(err)
	}
	if ckptLarge <= sonicI {
		t.Errorf("sparse checkpointing at 100uF (%v) should waste more than SONIC (%v)", ckptLarge, sonicI)
	}
	t.Logf("continuous: sonic %.0fuJ vs ckpt-4 %.0fuJ (%.2fx); 100uF: sonic %.0fuJ vs ckpt-128 %.0fuJ (%.2fx)",
		sonicE/1e3, ckptSmall/1e3, ckptSmall/sonicE, sonicI/1e3, ckptLarge/1e3, ckptLarge/sonicI)
}

// TestPreparedReuseMatchesFresh pins that a prepared checkpointing
// runtime keeps no volatile state from one run to the next: one ckpt-8
// core.Prepared, resident on a pooled slot, serves a run that does not
// complete — its refailures land a few ops into each charge cycle, so
// its last attempt can stop mid checkpoint period — and then a run under
// periodic brown-outs whose first one lands early in the first layer.
// Every second run must match the same run freshly deployed and
// prepared: logits and the full Stats, commits and wasted work included.
// Each attempt clears the periodic-checkpoint counter
// (sonic.Exec.ResetVolatile); a first attempt that inherited it would
// checkpoint at other iterations, and the early brown-out would waste a
// different amount of work.
func TestPreparedReuseMatchesFresh(t *testing.T) {
	qm, ex := buildModel(t)
	qin := qm.QuantizeInput(ex[0].X)
	rt := Checkpoint{Interval: 8}
	const period = 1511
	firsts := []int{97, 211}
	want := make(map[int]core.Outcome)
	for _, first := range firsts {
		dev := mcu.New(energy.NewFailAfterOps(first, period))
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatal(err)
		}
		logits, ierr := rt.Infer(img, qin)
		o, err := core.Finish(dev, logits, ierr)
		if err != nil || o.DNC {
			t.Fatalf("fresh run: err %v, DNC %v", err, o.DNC)
		}
		if o.Stats.WastedCycles == 0 {
			t.Fatalf("fresh run under first=%d wasted nothing: the comparison is vacuous", first)
		}
		want[first] = o
	}

	tmpl, err := core.NewTemplate(qm)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := tmpl.NewSlot(mcu.New(energy.Continuous{}), rt)
	if err != nil {
		t.Fatal(err)
	}
	run := func(power energy.System) core.Outcome {
		t.Helper()
		if _, err := sl.Provision(power); err != nil {
			t.Fatal(err)
		}
		if err := sl.Img.LoadInput(qin); err != nil {
			t.Fatal(err)
		}
		logits, ierr := sl.Run.ResumeInfer(nil)
		o, err := core.Finish(sl.Dev, logits, ierr)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	var total int
	for _, n := range run(energy.Continuous{}).Stats.OpCount {
		total += int(n)
	}
	for _, b := range []int{37, total / 5, total / 2, 4 * total / 5, total} {
		for _, refail := range []int{10, 17, 29} {
			for _, first := range firsts {
				gaps := []int{b, refail, refail, refail, refail, refail, refail, refail}
				if o := run(energy.NewFailSchedule(gaps)); !o.DNC {
					t.Fatalf("schedule %v completed; want a run that does not complete", gaps)
				}
				got := run(energy.NewFailAfterOps(first, period))
				if got.DNC {
					t.Fatalf("after %v: reused runtime did not complete", gaps)
				}
				assertEqualQ(t, got.Logits, want[first].Logits, "reused after a DNC")
				if !reflect.DeepEqual(got.Stats, want[first].Stats) {
					t.Fatalf("after %v, first failure at op %d: reused runtime's stats differ from a fresh run's:\n got %+v\nwant %+v",
						gaps, first, *got.Stats, *want[first].Stats)
				}
			}
		}
	}
}
