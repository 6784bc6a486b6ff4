package intermittest

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// TestSparseAdversarialCampaign sweeps a brown-out across every operation
// boundary of the adversarial CSR model — hitting every row boundary,
// every multi-row advance over empty rows, and every undo-log arm point
// (the rd > pos resume) of every row shape — for all seven runtimes, twice.
// The "<runtime>" sweep arms the WAR shadow tracker. The "<runtime>-tape"
// sweep leaves it off and simulates every boundary from scratch, so the
// continuous-power golden run executes the fused span-table train and
// every brown-out replay must land on its logits. CI greps for each
// subtest's PASS line, so a skip or a dropped subtest fails the build.
func TestSparseAdversarialCampaign(t *testing.T) {
	qm, x := AdversarialCSRModel(1)
	for _, tc := range []struct {
		rt    core.Runtime
		fused bool
	}{
		{baseline.Base{}, false}, {baseline.Base{}, true},
		{baseline.Tile{TileSize: 8}, false}, {baseline.Tile{TileSize: 8}, true},
		{baseline.Tile{TileSize: 32}, false}, {baseline.Tile{TileSize: 32}, true},
		{baseline.Tile{TileSize: 128}, false}, {baseline.Tile{TileSize: 128}, true},
		{sonic.SONIC{}, false}, {sonic.SONIC{}, true},
		{tails.TAILS{}, false}, {tails.TAILS{}, true},
		{checkpoint.Checkpoint{Interval: 8}, false}, {checkpoint.Checkpoint{Interval: 8}, true},
	} {
		rt, fused := tc.rt, tc.fused
		name := rt.Name()
		if fused {
			name += "-tape"
		}
		t.Run(name, func(t *testing.T) {
			// The naive baseline is the negative control: it must fail
			// somewhere, proving the sweep has teeth on this model too.
			unsafe := rt.Name() == "base"
			rep, err := SweepRuntime(qm, x, rt, Options{CheckWAR: !unsafe && !fused, forceScratch: fused})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Exhaustive || int64(rep.Swept) != rep.TotalOps {
				t.Fatalf("sweep not exhaustive: swept %d of %d", rep.Swept, rep.TotalOps)
			}
			if unsafe {
				if len(rep.Mismatches) == 0 {
					t.Fatalf("negative control survived the sweep: %s", rep.Summary())
				}
				return
			}
			if !rep.Clean() {
				t.Errorf("NOT clean: %s", rep.Summary())
				for i, m := range rep.Mismatches {
					if i >= 5 {
						break
					}
					t.Logf("  %s", m)
				}
				for i, v := range rep.WARSample {
					if i >= 5 {
						break
					}
					t.Logf("  WAR %s[%d] layer=%s op=%d", v.Region, v.Index, v.Layer, v.Op)
				}
			}
		})
	}
}
