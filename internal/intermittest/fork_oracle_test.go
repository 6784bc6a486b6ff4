package intermittest

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// forkRuntime is one fork-oracle subtest: a runtime on one model.
type forkRuntime struct {
	label string
	rt    core.Runtime
	csr   bool // the adversarial CSR model instead of the tiny one
}

// forkRuntimes is every runtime the fork oracle must cover: the six Fig. 9
// implementations and the checkpoint baseline, each on the tiny model
// ("<runtime>") and on the adversarial CSR model ("<runtime>-tape"), whose
// sparse layer drives the compiled tape's span-table walk through every
// row shape; plus the deliberately unsafe negative control, whose
// corrupted verdicts must survive forking bit-for-bit just as faithfully
// as the clean runtimes' verdicts do.
func forkRuntimes() []forkRuntime {
	var out []forkRuntime
	for _, rt := range []core.Runtime{
		baseline.Base{},
		baseline.Tile{TileSize: 8},
		baseline.Tile{TileSize: 32},
		baseline.Tile{TileSize: 128},
		sonic.SONIC{},
		tails.TAILS{},
		checkpoint.Checkpoint{Interval: 8},
	} {
		out = append(out, forkRuntime{rt.Name(), rt, false}, forkRuntime{rt.Name() + "-tape", rt, true})
	}
	return append(out, forkRuntime{"broken", Broken{}, false})
}

// diffResults asserts two ScheduleResults are bit-identical in everything a
// campaign verdict depends on: completion, error, first logit divergence,
// WAR totals and retained records, and the device's full final accounting
// (op counts, per-section stats, reboots, dead time, commit maximum).
func diffResults(t *testing.T, label string, want, got *ScheduleResult) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(label+": "+format, args...)
		ok = false
	}
	if want.DNC != got.DNC {
		fail("DNC: scratch=%v fork=%v", want.DNC, got.DNC)
	}
	switch {
	case (want.Err == nil) != (got.Err == nil):
		fail("error: scratch=%v fork=%v", want.Err, got.Err)
	case want.Err != nil && want.Err.Error() != got.Err.Error():
		fail("error text: scratch=%q fork=%q", want.Err, got.Err)
	}
	if !reflect.DeepEqual(want.Mismatch, got.Mismatch) {
		fail("mismatch: scratch=%v fork=%v", want.Mismatch, got.Mismatch)
	}
	if want.WARCount != got.WARCount {
		fail("WAR count: scratch=%d fork=%d", want.WARCount, got.WARCount)
	}
	if !reflect.DeepEqual(want.WAR, got.WAR) {
		fail("WAR records: scratch=%v fork=%v", want.WAR, got.WAR)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		fail("device stats: scratch=%+v fork=%+v", want.Stats, got.Stats)
	}
	return ok
}

// TestForkDifferentialOracle proves the snapshot-and-fork check path is
// bit-identical to full from-scratch simulation, for every runtime: same
// logit verdicts, same WAR counts and records, same DNC outcomes, and the
// same final device Stats down to per-section op attribution and dead
// time. It samples single-failure boundaries across the whole run (edges
// included) plus multi-failure schedules whose later failures are
// simulated live in the forked suffix.
//
// This test must never skip: a runtime that stops implementing
// core.Resumer, or a journal that fails to cover the golden run, silently
// reverts the campaign to the slow path and voids the equivalence claim —
// so both conditions are hard failures here, and CI greps for this test's
// per-runtime PASS lines.
func TestForkDifferentialOracle(t *testing.T) {
	for _, fr := range forkRuntimes() {
		rt, label := fr.rt, fr.label
		qm, x := TinyModel(1)
		if fr.csr {
			qm, x = AdversarialCSRModel(1)
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			scratch, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: true, forceScratch: true})
			if err != nil {
				t.Fatal(err)
			}
			if scratch.Forks() {
				t.Fatal("forceScratch checker still forks")
			}
			// A short stride forces many snapshots, so sampled boundaries
			// land in many distinct restore windows.
			forked, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: true, SnapStride: 256})
			if err != nil {
				t.Fatal(err)
			}
			if !forked.Forks() {
				t.Fatalf("%s does not fork: journal unavailable (Resumer regression?)", label)
			}
			if forked.TotalOps() != scratch.TotalOps() {
				t.Fatalf("golden op counts differ: fork=%d scratch=%d",
					forked.TotalOps(), scratch.TotalOps())
			}

			total := int(forked.TotalOps())
			stride := total / 60
			if stride < 1 {
				stride = 1
			}
			bounds := []int{1, 2, total - 1, total}
			for b := 1 + stride/2; b <= total; b += stride {
				bounds = append(bounds, b)
			}
			bad := 0
			for _, b := range bounds {
				if b < 1 || b > total {
					continue
				}
				if !diffResults(t, label+" single", scratch.Check([]int{b}), forked.Check([]int{b})) {
					if bad++; bad >= 3 {
						t.Fatal("too many divergences; stopping early")
					}
				}
			}

			// Multi-failure schedules: the journal eliminates only the
			// prefix before the first failure; everything after — including
			// later brown-outs and the DNC cutoff — runs live in the suffix.
			mid := total / 2
			for _, gaps := range [][]int{
				{1, 40, 40},
				{mid, 500, 500},
				{total, 7},
				{mid, 1, 1, 1, 1, 1, 1, 1}, // immediate refailures: DNC parity
			} {
				if !diffResults(t, label+" multi", scratch.Check(gaps), forked.Check(gaps)) {
					if bad++; bad >= 3 {
						t.Fatal("too many divergences; stopping early")
					}
				}
			}
		})
	}
}

// TestMinimizeOneMinimal is the 1-minimality property test: Minimize's
// output must still fail, while removing any single element or decrementing
// any single gap must yield a passing schedule. Seeded across runtimes and
// failure modes: logit corruption (Broken), golden-input corruption (Base),
// and does-not-complete (SONIC under immediate refailure).
func TestMinimizeOneMinimal(t *testing.T) {
	qm, x := TinyModel(1)
	cases := []struct {
		rt   core.Runtime
		seed func(t *testing.T) []int
	}{
		{Broken{}, func(t *testing.T) []int { return []int{firstFailingBound(t, qm, x, Broken{}), 500, 500} }},
		{baseline.Base{}, func(t *testing.T) []int { return []int{firstFailingBound(t, qm, x, baseline.Base{}), 300} }},
		{sonic.SONIC{}, func(t *testing.T) []int {
			gaps := []int{50}
			for i := 0; i < 8; i++ {
				gaps = append(gaps, 1)
			}
			return gaps
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.rt.Name(), func(t *testing.T) {
			t.Parallel()
			c, err := NewCheckerOpt(qm, x, tc.rt, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seed := tc.seed(t)
			if !c.Check(seed).Failing() {
				t.Fatalf("seed schedule %v does not fail", seed)
			}
			min := c.Minimize(seed)
			if !c.Check(min).Failing() {
				t.Fatalf("minimized schedule %v no longer fails", min)
			}
			if len(min) == 0 {
				t.Fatal("minimized schedule is empty yet failing")
			}
			for i := range min {
				drop := append(append([]int(nil), min[:i]...), min[i+1:]...)
				if len(drop) > 0 && c.Check(drop).Failing() {
					t.Errorf("not 1-minimal: dropping element %d of %v still fails", i, min)
				}
			}
			for i := range min {
				if min[i] <= 1 {
					continue
				}
				dec := append([]int(nil), min...)
				dec[i]--
				if c.Check(dec).Failing() {
					t.Errorf("not 1-minimal: decrementing gap %d of %v still fails", i, min)
				}
			}
			t.Logf("%s: %v -> %v", tc.rt.Name(), seed, min)
		})
	}
}

// firstFailingBound sweeps the runtime and returns its first mismatching
// boundary, failing the test if the sweep is clean.
func firstFailingBound(t *testing.T, qm *dnn.QuantModel, x []float64, rt core.Runtime) int {
	t.Helper()
	rep, err := SweepRuntime(qm, x, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) == 0 {
		t.Fatalf("%s: no failing boundary to seed from", rt.Name())
	}
	return rep.Mismatches[0].Boundary
}
