package baseline_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
)

// tileRunResult is one tile inference's observable result: logits, the error,
// the device's Stats and FusedOps, and the final FRAM image (the task
// runtime's state and redo log included).
type tileRunResult struct {
	logits []fixed.Q15
	err    error
	stats  *mcu.Stats
	fused  int64
	fram   []int64
}

// runTile deploys qm on dev, runs tile-k once and reads the run off dev
// before the runtime releases its regions. A run that does not complete
// is a result; any other failure is the error.
func runTile(dev *mcu.Device, qm *dnn.QuantModel, qin []fixed.Q15, k int) (tileRunResult, error) {
	var r tileRunResult
	img, err := core.Deploy(dev, qm)
	if err != nil {
		return r, err
	}
	if err := img.LoadInput(qin); err != nil {
		return r, err
	}
	p, err := baseline.Tile{TileSize: k}.Prepare(img)
	if err != nil {
		return r, err
	}
	defer p.Release()
	r.logits, r.err = p.ResumeInfer(nil)
	if r.err != nil && !errors.Is(r.err, mcu.ErrDoesNotComplete) {
		return r, r.err
	}
	r.stats, r.fused = dev.Stats(), dev.FusedOps()
	for i := 0; i < dev.FRAM.Regions(); i++ {
		r.fram = append(r.fram, dev.FRAM.RegionAt(i).ROWords()...)
	}
	return r, nil
}

// mustRunTile is runTile failing t on an error, on t's goroutine.
func mustRunTile(t *testing.T, dev *mcu.Device, qm *dnn.QuantModel, qin []fixed.Q15, k int) tileRunResult {
	t.Helper()
	r, err := runTile(dev, qm, qin, k)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSharedTilePlanMatchesFresh: a tile runtime takes its fused tasks'
// plan from the one its (model, tile size) shares, compiled by whichever
// device fused first. The plan holds section slots, not a device's
// section tokens, so a device whose token table was filled in another
// order — here every section of the model requested in reverse before
// deployment — must run from the shared plan exactly as a device running
// a fresh copy of the model, which compiles a plan of its own: the same
// logits, Stats (sections included), FusedOps and FRAM image. One shared
// model serves both tile sizes, so a plan shared across tile sizes shows;
// the rf-100uF rows brown out, so a dispatch's prologue is charged to the
// section a brown-out left active.
func TestSharedTilePlanMatchesFresh(t *testing.T) {
	models := []struct {
		name string
		mk   func(uint64) (*dnn.QuantModel, []float64)
	}{
		{"tiny", intermittest.TinyModel},
		{"csr", intermittest.AdversarialCSRModel},
	}
	powers := []struct {
		name string
		mk   func() energy.System
	}{
		{"cont", func() energy.System { return energy.Continuous{} }},
		{"rf-100uF", func() energy.System {
			return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
		}},
	}
	for _, m := range models {
		shared, x := m.mk(1)
		qin := shared.QuantizeInput(x)
		for _, k := range []int{8, 128} {
			// The first fused run on the shared model compiles its plan,
			// on a device with the usual token order.
			if w := mustRunTile(t, mcu.New(energy.Continuous{}), shared, qin, k); w.fused == 0 {
				t.Fatalf("%s/tile-%d: the compiling run fused nothing", m.name, k)
			}
			for _, pw := range powers {
				t.Run(fmt.Sprintf("%s/tile-%d/%s", m.name, k, pw.name), func(t *testing.T) {
					dev := mcu.New(pw.mk())
					for li := len(shared.Layers) - 1; li >= 0; li-- {
						for _, ph := range []mcu.Phase{mcu.PhaseKernel, mcu.PhaseTransition, mcu.PhaseControl} {
							dev.SectionToken(core.LayerName(shared, li), ph)
						}
					}
					got := mustRunTile(t, dev, shared, qin, k)
					own, _ := m.mk(1)
					want := mustRunTile(t, mcu.New(pw.mk()), own, qin, k)
					if got.fused == 0 {
						t.Errorf("shared plan fused nothing")
					}
					if pw.name != "cont" && got.stats.Reboots == 0 {
						t.Errorf("no brown-out under %s", pw.name)
					}
					if !reflect.DeepEqual(got.logits, want.logits) || !errors.Is(got.err, want.err) {
						t.Errorf("logits %v (%v), want %v (%v)", got.logits, got.err, want.logits, want.err)
					}
					if got.fused != want.fused {
						t.Errorf("FusedOps %d, want %d", got.fused, want.fused)
					}
					if !reflect.DeepEqual(got.stats, want.stats) {
						t.Errorf("Stats diverge:\n shared %+v\n own    %+v", *got.stats, *want.stats)
					}
					if !reflect.DeepEqual(got.fram, want.fram) {
						t.Errorf("FRAM image diverges")
					}
				})
			}
		}
	}
}

// TestSharedTilePlanConcurrent: tile runtimes of one (model, tile size)
// on several goroutines at once race to compile the plan they share and
// then read it; each run must equal a run on a fresh copy of the model.
// Run it under -race.
func TestSharedTilePlanConcurrent(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	own, _ := intermittest.TinyModel(1)
	want := mustRunTile(t, mcu.New(energy.Continuous{}), own, qin, 8)
	got := make([]tileRunResult, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runTile(mcu.New(energy.Continuous{}), qm, qin, 8)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if errs[i] != nil {
			t.Errorf("goroutine %d: %v", i, errs[i])
		} else if !reflect.DeepEqual(g, want) {
			t.Errorf("goroutine %d: run diverges from a fresh model's", i)
		}
	}
}
