package intermittest

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// protected returns the six crash-consistent runtimes the paper claims
// survive arbitrary brown-out placement.
func protected() []core.Runtime {
	return []core.Runtime{
		baseline.Tile{TileSize: 8},
		baseline.Tile{TileSize: 32},
		baseline.Tile{TileSize: 128},
		sonic.SONIC{},
		tails.TAILS{},
		checkpoint.Checkpoint{Interval: 8},
	}
}

func TestTinyModelDeterministic(t *testing.T) {
	a, xa := TinyModel(7)
	b, xb := TinyModel(7)
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatalf("input sample not reproducible at %d", i)
		}
	}
	la := a.Forward(a.QuantizeInput(xa))
	lb := b.Forward(b.QuantizeInput(xb))
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("logits not reproducible at %d: %d vs %d", i, la[i], lb[i])
		}
	}
}

// TestProtectedRuntimesExhaustivelyClean is the tentpole acceptance
// criterion: a brown-out at every single operation boundary, under all six
// crash-consistent runtimes, with the WAR shadow tracker armed — zero logit
// mismatches, zero consistency violations, every run completes.
func TestProtectedRuntimesExhaustivelyClean(t *testing.T) {
	qm, x := TinyModel(1)
	rep, err := Campaign(qm, x, protected(), Options{CheckWAR: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Runtimes {
		if !rr.Exhaustive {
			t.Errorf("%s: sweep not exhaustive (%d ops)", rr.Runtime, rr.TotalOps)
		}
		if int64(rr.Swept) != rr.TotalOps {
			t.Errorf("%s: swept %d of %d boundaries", rr.Runtime, rr.Swept, rr.TotalOps)
		}
		if !rr.Clean() {
			t.Errorf("%s: NOT clean: %s", rr.Runtime, rr.Summary())
			for i, m := range rr.Mismatches {
				if i >= 5 {
					break
				}
				t.Logf("  %s", m)
			}
			for i, v := range rr.WARSample {
				if i >= 5 {
					break
				}
				t.Logf("  WAR %s[%d] layer=%s op=%d", v.Region, v.Index, v.Layer, v.Op)
			}
		}
	}
	t.Logf("\n%s", rep)
}

// TestBaseIsUnsafe: the naive baseline is a natural negative control — its
// in-place ReLU overwrites the input activations, so a restart from scratch
// reads corrupted input. Both oracles must catch it: the differential sweep
// sees wrong logits, and the WAR detector flags the in-place overwrite
// (even under continuous power).
func TestBaseIsUnsafe(t *testing.T) {
	qm, x := TinyModel(1)
	rep, err := SweepRuntime(qm, x, baseline.Base{}, Options{CheckWAR: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) == 0 {
		t.Error("base: differential sweep found no logit mismatches; expected corruption")
	}
	if rep.GoldenWAR == 0 {
		t.Error("base: WAR detector silent on the in-place ReLU")
	}
	found := false
	for _, v := range rep.WARSample {
		if strings.HasPrefix(v.Region, "act.") {
			found = true
		}
	}
	if !found && len(rep.WARSample) > 0 {
		t.Errorf("base: expected WAR on an activation buffer, got %s[%d]",
			rep.WARSample[0].Region, rep.WARSample[0].Index)
	}
	t.Log(rep.Summary())
}

// TestBrokenNegativeControl: the deliberately unsafe runtime must be
// bit-identical to SONIC under continuous power (so nothing but fault
// injection can distinguish it) yet flagged by both oracles under faults.
func TestBrokenNegativeControl(t *testing.T) {
	qm, x := TinyModel(1)
	cs, err := NewChecker(qm, x, sonic.SONIC{}, false)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewChecker(qm, x, Broken{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs.Golden() {
		if cs.Golden()[i] != cb.Golden()[i] {
			t.Fatalf("broken diverges from sonic under continuous power at logit %d", i)
		}
	}

	// Differential oracle alone (WAR checking off): brown-outs corrupt logits.
	rep, err := SweepRuntime(qm, x, Broken{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) == 0 {
		t.Error("broken: exhaustive differential sweep found no mismatches")
	}

	// WAR oracle: flags the in-place dense kernel even with no brown-out.
	cw, err := NewChecker(qm, x, Broken{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw.GoldenWAR()) == 0 {
		t.Error("broken: WAR detector silent on in-place dense accumulation")
	}
	for _, v := range cw.GoldenWAR() {
		if !strings.HasPrefix(v.Region, "acc.") {
			t.Errorf("broken: WAR on unexpected region %s[%d]", v.Region, v.Index)
		}
	}

	// WAR-armed sweep on the snapshot-and-fork path: every run, wherever
	// its brown-out lands, executes the in-place dense accumulation, so
	// every boundary must be flagged — one that comes back clean means the
	// fork path lost WAR coverage.
	rw, err := SweepRuntime(qm, x, Broken{}, Options{CheckWAR: true})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Swept == 0 || len(rw.WARBounds) != rw.Swept {
		t.Errorf("broken: WAR flagged at %d of %d boundaries, want all", len(rw.WARBounds), rw.Swept)
	}
}

// TestMinimize shrinks a failing multi-failure schedule down to a minimal
// reproducer that still fails.
func TestMinimize(t *testing.T) {
	qm, x := TinyModel(1)
	c, err := NewChecker(qm, x, Broken{}, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SweepRuntime(qm, x, Broken{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) == 0 {
		t.Fatal("no failing boundary to minimize from")
	}
	b := rep.Mismatches[0].Boundary
	gaps := []int{b, 500, 500}
	if !c.Check(gaps).Failing() {
		gaps = []int{b}
	}
	min := c.Minimize(gaps)
	if !c.Check(min).Failing() {
		t.Fatalf("minimized schedule %v no longer fails", min)
	}
	if len(min) > len(gaps) {
		t.Fatalf("minimize grew the schedule: %v -> %v", gaps, min)
	}
	t.Logf("minimized %v -> %v", gaps, min)
}

// TestSampledSweep exercises the stratified sampling path used when a model
// is too big for the exhaustive mode.
func TestSampledSweep(t *testing.T) {
	qm, x := TinyModel(1)
	rep, err := SweepRuntime(qm, x, sonic.SONIC{}, Options{
		ExhaustiveLimit: 100, MaxBoundaries: 64, Seed: 3, CheckWAR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhaustive {
		t.Fatal("sweep should have sampled")
	}
	if rep.Swept == 0 || rep.Swept > 64 {
		t.Fatalf("sampled %d boundaries, want 1..64", rep.Swept)
	}
	if !rep.Clean() {
		t.Errorf("sonic sampled sweep not clean: %s", rep.Summary())
	}
	// Same seed, same boundaries.
	rep2, err := SweepRuntime(qm, x, sonic.SONIC{}, Options{
		ExhaustiveLimit: 100, MaxBoundaries: 64, Seed: 3, CheckWAR: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Swept != rep.Swept {
		t.Errorf("sampling not reproducible: %d vs %d boundaries", rep2.Swept, rep.Swept)
	}
}
