package harness

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
)

// rebootBudget is a tracer subscribed to reboots only: it panics once a
// run has rebooted more than limit times, so a run that spins for ever
// fails its cell instead of hanging the test. It enforces the budget
// rather than a power-system wrapper because the device devirtualizes
// *energy.Intermittent, so a wrapped capacitor would never fuse, while a
// charge-cycle tracer keeps fusion engaged (mcu.Device.CanFuse).
type rebootBudget struct{ limit int }

// errRebootBudget is the budget's panic value.
var errRebootBudget = errors.New("reboot budget exhausted")

func (b *rebootBudget) TraceMask() uint32 { return 1 << mcu.TraceReboot }

func (b *rebootBudget) TraceEvent(mcu.TraceEvent) {
	if b.limit--; b.limit < 0 {
		panic(errRebootBudget)
	}
}

// terminateReboots is the reboot budget of one TestEveryRuntimeTerminates
// cell: about fifteen times the most reboots any cell that completes
// takes (64), and far below the millions a livelocked run reaches in a
// second.
const terminateReboots = 1000

// TestEveryRuntimeTerminates is the non-termination guard: every oracle
// runtime on both corpus models, under a 1 mW harvester at every whole
// capacitance from 1 to 40 µF, on the fused path and on the energy.PerOp
// reference, must complete or report mcu.ErrDoesNotComplete within
// terminateReboots reboots. The device's no-progress counter misses a run
// that keeps committing without moving forward; the budget catches it. The
// fused column must fuse somewhere in the sweep, so it is not the per-op
// path twice.
//
// CI runs it verbose, rejects skips and requires its PASS line.
func TestEveryRuntimeTerminates(t *testing.T) {
	var fused int64
	for _, rt := range oracleRuntimes() {
		for _, m := range corpusModels() {
			for _, perOp := range []bool{false, true} {
				completed, dnc := 0, 0
				for uF := 1; uF <= 40; uF++ {
					var power energy.System = energy.NewIntermittent(energy.CapBank(float64(uF)*1e-6), energy.ConstantHarvester{Watts: 1e-3})
					if perOp {
						power = energy.PerOp{S: power}
					}
					dev := mcu.New(power)
					img, err := core.Deploy(dev, m.qm)
					if err != nil {
						t.Fatalf("%s/%s: deploy: %v", rt.Name(), m.qm.Name, err)
					}
					dev.SetTracer(&rebootBudget{limit: terminateReboots})
					err = inferWithin(rt, img, m.qin)
					switch {
					case err == nil:
						completed++
					case errors.Is(err, mcu.ErrDoesNotComplete):
						dnc++
					default:
						t.Errorf("%s/%s/%d uF (per op %v): %v after %d reboots",
							rt.Name(), m.qm.Name, uF, perOp, err, dev.Stats().Reboots)
					}
					if !perOp {
						fused += dev.FusedOps()
					}
				}
				t.Logf("%s/%s (per op %v): %d completed, %d does-not-complete", rt.Name(), m.qm.Name, perOp, completed, dnc)
			}
		}
	}
	if fused == 0 {
		t.Error("the fused column never fused")
	}
}

// inferWithin runs one inference, turning an exhausted reboot budget into
// an error.
func inferWithin(rt core.Runtime, img *core.Image, qin []fixed.Q15) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != errRebootBudget {
				panic(r)
			}
			err = errRebootBudget
		}
	}()
	_, err = rt.Infer(img, qin)
	return err
}
