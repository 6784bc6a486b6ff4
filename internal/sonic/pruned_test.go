package sonic_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

// prunedRun is one inference of rt on a fresh device: its logits, Stats,
// fused op count and final FRAM image (every region, in bank order).
type prunedRun struct {
	logits []fixed.Q15
	stats  *mcu.Stats
	fused  int64
	nv     []int64
}

func runPruned(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15, rt core.Runtime, p energy.System) prunedRun {
	t.Helper()
	dev := mcu.New(p)
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	if img.Layers[0].FinPar.Get(1) != -1 {
		t.Fatal("filter 1 should have FinPar -1")
	}
	logits, err := rt.Infer(img, qin)
	if err != nil {
		t.Fatalf("%s: %v", rt.Name(), err)
	}
	r := prunedRun{logits: logits, stats: dev.Stats(), fused: dev.FusedOps()}
	for i := 0; i < dev.FRAM.Regions(); i++ {
		r.nv = append(r.nv, dev.FRAM.RegionAt(i).ROWords()...)
	}
	return r
}

// A conv where one filter is pruned away entirely exercises SONIC's
// bias-only finalize segment (FinPar == -1): under brown-outs against the
// host's logits, and on the fused path — SONIC and ckpt-8 under
// continuous power must fuse, and equal the energy.PerOp reference run on
// logits, Stats and the final FRAM image.
func TestFullyPrunedFilterBiasOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	n := dnn.NewNetwork("deadfilter", dnn.Shape{1, 1, 10})
	conv := dnn.NewConv(rng, 3, 1, 1, 3)
	// Kill filter 1 completely; keep the others.
	conv.Mask = make([]bool, conv.W.Len())
	for i := range conv.Mask {
		f := i / 3
		conv.Mask[i] = f != 1
	}
	conv.ApplyMask()
	conv.B.Set(0.4, 1) // its outputs must equal the bias
	n.Add(conv, dnn.NewFlatten(), dnn.NewDense(rng, 2, 24))
	x := make([]float64, 10)
	for i := range x {
		x[i] = 0.2
	}
	qm, err := dnn.Quantize(n, [][]float64{x})
	if err != nil {
		t.Fatal(err)
	}
	if qm.Layers[0].NZ == nil {
		t.Fatal("expected a sparse conv")
	}
	qin := qm.QuantizeInput(x)
	want := qm.Forward(qin)
	for _, period := range []int{0, 41, 167} {
		var p energy.System = energy.Continuous{}
		if period > 0 {
			p = energy.NewFailAfterOps(period, period)
		}
		got := runPruned(t, qm, qin, sonic.SONIC{}, p).logits
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("period %d: logit %d differs", period, i)
			}
		}
	}
	for _, rt := range []core.Runtime{sonic.SONIC{}, checkpoint.Checkpoint{Interval: 8}} {
		fused := runPruned(t, qm, qin, rt, energy.Continuous{})
		ref := runPruned(t, qm, qin, rt, energy.PerOp{S: energy.Continuous{}})
		if fused.fused == 0 {
			t.Errorf("%s: no op ran fused under continuous power", rt.Name())
		}
		if ref.fused != 0 {
			t.Errorf("%s: PerOp run fused %d ops, want 0", rt.Name(), ref.fused)
		}
		if !reflect.DeepEqual(fused.logits, want) || !reflect.DeepEqual(ref.logits, want) {
			t.Errorf("%s: logits fused=%v per-op=%v, want %v", rt.Name(), fused.logits, ref.logits, want)
		}
		if !reflect.DeepEqual(fused.stats, ref.stats) {
			t.Errorf("%s: Stats diverge:\nfused  %+v\nper-op %+v", rt.Name(), fused.stats, ref.stats)
		}
		if !reflect.DeepEqual(fused.nv, ref.nv) {
			t.Errorf("%s: FRAM image diverges from the per-op run", rt.Name())
		}
	}
}
