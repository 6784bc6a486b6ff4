package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/intermittest"
	"repro/internal/mcu"
)

// TestPreparedTileFollowsFusion: a Tile prepared once and run several
// times on one device decides at each run, from the device as it is then,
// whether its passes fuse; the graph built at Prepare serves every run,
// with no rebuild. Prepared where the device may not fuse (on the
// energy.PerOp reference power), its first run fuses nothing; once the
// device may fuse, the next run fuses, and going back to PerOp runs per
// op again. Every run computes the logits of a per-run Infer.
func TestPreparedTileFollowsFusion(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	rt := baseline.Tile{TileSize: 32}

	ref := mcu.New(energy.Continuous{})
	refImg, err := core.Deploy(ref, qm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.Infer(refImg, qin)
	if err != nil {
		t.Fatal(err)
	}

	dev := mcu.New(energy.PerOp{S: energy.Continuous{}})
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Prepare(img)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	for i, scalar := range []bool{true, false, false, true} {
		var power energy.System = energy.Continuous{}
		if scalar {
			power = energy.PerOp{S: power}
		}
		dev.Reprovision(power)
		if err := img.LoadInput(qin); err != nil {
			t.Fatal(err)
		}
		got, err := p.ResumeInfer(nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d (scalar %v): logit %d = %d, want %d", i, scalar, j, got[j], want[j])
			}
		}
		if fused := dev.FusedOps() > 0; fused == scalar {
			t.Errorf("run %d (scalar %v): fused %d ops", i, scalar, dev.FusedOps())
		}
	}
}
