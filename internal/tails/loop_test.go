package tails

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

// leaModel builds a network whose conv and dense layers both run on
// TAILS's LEA paths: an unpruned 2x2x3 conv over a 2x3x13 input (11
// outputs per row, not a multiple of an 8-word tile, so each row ends in a
// short chunk), then a dense layer over its 44 outputs (five full 8-word
// chunks and a short one).
func leaModel(t testing.TB) (*dnn.QuantModel, []fixed.Q15) {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 0))
	n := dnn.NewNetwork("lea", dnn.Shape{2, 3, 13})
	n.Add(dnn.NewConv(rng, 2, 2, 2, 3), dnn.NewReLU(), dnn.NewFlatten(), dnn.NewDense(rng, 3, 44))
	x := make([]float64, 2*3*13)
	for i := range x {
		x[i] = rng.Float64()*1.6 - 0.8
	}
	qm, err := dnn.Quantize(n, [][]float64{x})
	if err != nil {
		t.Fatal(err)
	}
	if qm.Layers[0].Kind != dnn.QConv || qm.Layers[0].NZ != nil {
		t.Fatal("expected a dense (unpruned) conv")
	}
	return qm, qm.QuantizeInput(x)
}

// resumeWatch is an analysis-only tracer (ChargeCycleKinds, so fusion
// stays on elsewhere) that notes a reboot resuming layer 0's chunk pass at
// I > 0, i.e. from a chunk commit the driver made. It also panics past a
// reboot budget, so a run that livelocks fails the test instead of
// hanging it.
type resumeWatch struct {
	img     *core.Image
	reboots int
	hit     bool
}

func (w *resumeWatch) TraceMask() uint32 { return mcu.ChargeCycleKinds }

func (w *resumeWatch) TraceEvent(e mcu.TraceEvent) {
	if e.Kind != mcu.TraceReboot {
		return
	}
	if w.reboots++; w.reboots > 1000 {
		panic("reboot budget exhausted")
	}
	c := sonic.Unpack(w.img.Ctl.Get(0)) // SONIC's cursor slot
	if c.Layer == 0 && c.Pass == 0 && c.I > 0 {
		w.hit = true
	}
}

// leaRun is one inference on a fresh device: its core.Finish outcome,
// fused op count, final FRAM image, and whether it resumed mid-conv.
type leaRun struct {
	out     core.Outcome
	fused   int64
	nv      []int64
	resumed bool
}

func runLEA(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15, rt TAILS, p energy.System, tile int) leaRun {
	t.Helper()
	dev, img := deploy(t, qm, p)
	if tile > 0 {
		img.Cal.Put(calTile, int64(tile))
	}
	w := &resumeWatch{img: img}
	dev.SetTracer(w)
	logits, err := rt.Infer(img, qin)
	fused := dev.FusedOps()
	out, err := core.Finish(dev, logits, err)
	if err != nil {
		t.Fatalf("%s: %v", rt.Name(), err)
	}
	r := leaRun{out: out, fused: fused, resumed: w.hit}
	for i := 0; i < dev.FRAM.Regions(); i++ {
		r.nv = append(r.nv, dev.FRAM.RegionAt(i).ROWords()...)
	}
	return r
}

// TestLEALoopsFusedMatchPerOp is the in-package oracle for TAILS's LEA
// conv and dense chunk walks on the loop-continuation driver: for every
// variant, at the calibrated tile and at a preset 8-word tile (short last
// chunks, multi-chunk dense rows), under continuous power and a 19 uF
// capacitor under which every row reboots mid-conv with I > 0, the fused
// run (whose other loops fuse around the chunk walks) must equal the
// energy.PerOp run on the core.Finish outcome and every FRAM word. Both
// sides run the same chunk body, so exact total op counts, recorded while
// the walks were still hand-written, pin the op stream they share.
func TestLEALoopsFusedMatchPerOp(t *testing.T) {
	qm, qin := leaModel(t)
	powers := []struct {
		name string
		mk   func() energy.System
	}{
		{"cont", func() energy.System { return energy.Continuous{} }},
		{"rf-19uF", func() energy.System {
			return energy.NewIntermittent(energy.CapBank(19e-6), energy.ConstantHarvester{Watts: 1e-3})
		}},
	}
	totals := map[string]int64{
		"tails/tile-0/cont": 4419, "tails/tile-0/rf-19uF": 4487,
		"tails/tile-8/cont": 3254, "tails/tile-8/rf-19uF": 3387,
		"tails-noLEA/tile-0/cont": 11882, "tails-noLEA/tile-0/rf-19uF": 11632,
		"tails-noLEA/tile-8/cont": 6392, "tails-noLEA/tile-8/rf-19uF": 6865,
		"tails-noDMA/tile-0/cont": 5397, "tails-noDMA/tile-0/rf-19uF": 6916,
		"tails-noDMA/tile-8/cont": 4006, "tails-noDMA/tile-8/rf-19uF": 4182,
		"tails-sw/tile-0/cont": 12860, "tails-sw/tile-0/rf-19uF": 12623,
		"tails-sw/tile-8/cont": 7144, "tails-sw/tile-8/rf-19uF": 7725,
	}
	for _, rt := range []TAILS{{}, {SoftwareLEA: true}, {SoftwareDMA: true}, {SoftwareLEA: true, SoftwareDMA: true}} {
		t.Run(rt.Name(), func(t *testing.T) {
			for _, tile := range []int{0, 8} {
				for _, pw := range powers {
					row := fmt.Sprintf("%s/tile-%d/%s", rt.Name(), tile, pw.name)
					fused := runLEA(t, qm, qin, rt, pw.mk(), tile)
					ref := runLEA(t, qm, qin, rt, energy.PerOp{S: pw.mk()}, tile)
					var total int64
					for _, n := range fused.out.Stats.OpCount {
						total += n
					}
					t.Logf("%s: %d of %d ops fused, %d reboots", row, fused.fused, total, fused.out.Stats.Reboots)
					if fused.out.DNC {
						t.Errorf("%s: does not complete", row)
					}
					if fused.fused == 0 || ref.fused != 0 {
						t.Errorf("%s: fused run fused %d ops, per-op run %d; want > 0 and 0", row, fused.fused, ref.fused)
					}
					if pw.name != "cont" && !fused.resumed {
						t.Errorf("%s: no reboot resumed mid-conv", row)
					}
					if !reflect.DeepEqual(fused.out, ref.out) {
						t.Errorf("%s: outcome diverges:\nfused  %+v\nper-op %+v", row, fused.out, ref.out)
					}
					if !reflect.DeepEqual(fused.nv, ref.nv) {
						t.Errorf("%s: FRAM image diverges from the per-op run", row)
					}
					if want := totals[row]; total != want {
						t.Errorf("%s: %d ops charged, want %d", row, total, want)
					}
				}
			}
		})
	}
}
