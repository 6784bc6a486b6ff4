package intermittest

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/mcu"
	"repro/internal/mem"
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
// WAR totals and retained records, the device's full final accounting
// (op counts, per-section stats, reboots, dead time, commit maximum,
// commits and wasted work).
func diffResults(t *testing.T, label string, want, got *ScheduleResult) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(label+": "+format, args...)
		ok = false
	}
	if want.DNC != got.DNC {
		fail("DNC: want=%v got=%v", want.DNC, got.DNC)
	}
	switch {
	case (want.Err == nil) != (got.Err == nil):
		fail("error: want=%v got=%v", want.Err, got.Err)
	case want.Err != nil && want.Err.Error() != got.Err.Error():
		fail("error text: want=%q got=%q", want.Err, got.Err)
	}
	if !reflect.DeepEqual(want.Mismatch, got.Mismatch) {
		fail("mismatch: want=%v got=%v", want.Mismatch, got.Mismatch)
	}
	if want.WARCount != got.WARCount {
		fail("WAR count: want=%d got=%d", want.WARCount, got.WARCount)
	}
	if !reflect.DeepEqual(want.WAR, got.WAR) {
		fail("WAR records: want=%v got=%v", want.WAR, got.WAR)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		fail("device stats: want=%+v got=%+v", want.Stats, got.Stats)
	}
	return ok
}

// nvResult is a check's result with a digest of the banks its run left.
type nvResult struct {
	*ScheduleResult
	nv uint64
}

// checkNV is c.Check plus the digest of the slot the check ran on, which
// waits untouched on the free list until the next check: the oracles run
// one check at a time.
func checkNV(c *Checker, gaps []int) nvResult {
	res := c.Check(gaps)
	if res.Err != nil && len(c.slots) == 0 {
		return nvResult{res, 0} // no slot: diffResults reports the error
	}
	return nvResult{res, bankDigest(c.slots[len(c.slots)-1].Dev)}
}

// diffNV is diffResults plus the final image of both banks.
func diffNV(t *testing.T, label string, want, got nvResult) bool {
	t.Helper()
	ok := diffResults(t, label, want.ScheduleResult, got.ScheduleResult)
	if want.nv != got.nv {
		t.Errorf("%s: NV image digest: want=%#x got=%#x", label, want.nv, got.nv)
		ok = false
	}
	return ok
}

// bankDigest is an FNV-1a digest of every region of both banks: name,
// length and every word, FRAM first. It covers the whole NV image a run
// leaves — dead redo-log entries included — and the SRAM scratch a
// runtime keeps resident.
func bankDigest(dev *mcu.Device) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range []*mem.Memory{dev.FRAM, dev.SRAM} {
		for i := 0; i < m.Regions(); i++ {
			r := m.RegionAt(i)
			h.Write([]byte(r.Name))
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Len()))
			h.Write(buf[:])
			for _, w := range r.ROWords() {
				binary.LittleEndian.PutUint64(buf[:], uint64(w))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestForkDifferentialOracle proves the snapshot-and-fork check path is
// bit-identical to full from-scratch simulation on a fresh device, for
// every runtime: same logit verdicts, same WAR counts and records, same
// DNC outcomes, the same final device Stats down to per-section op
// attribution, dead time, commits and wasted work, and the same final
// FRAM and SRAM image. It samples single-failure boundaries across the
// whole run (edges included) plus multi-failure schedules whose later
// failures are simulated live in the forked suffix. The reference runs
// each schedule on a newly deployed device (freshCheckNV), so state a
// fork slot carries from one check to the next shows up here too.
//
// This test must never skip: a journal that fails to cover the golden run
// silently reverts the campaign to the slow path and voids the
// equivalence claim — so it is a hard failure here, and CI greps for this
// test's per-runtime PASS lines.
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
				t.Fatalf("%s does not fork: journal unavailable (short journal?)", label)
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
				if !diffNV(t, label+" single", freshCheckNV(scratch, []int{b}), checkNV(forked, []int{b})) {
					if bad++; bad >= 3 {
						t.Fatal("too many divergences; stopping early")
					}
				}
			}

			// Multi-failure schedules: the journal eliminates only the
			// prefix before the first failure; everything after — including
			// later brown-outs and the DNC cutoff — runs live in the suffix.
			// The last two never fork: they run from scratch on a fork
			// slot the checks above dirtied, so anything the slot carries
			// over (a redo log left unzeroed) shows against the fresh
			// device.
			mid := total / 2
			for _, gaps := range [][]int{
				{1, 40, 40},
				{mid, 500, 500},
				{total, 7},
				{mid, 1, 1, 1, 1, 1, 1, 1}, // immediate refailures: DNC parity
				{total + 3},
				{0, 1, 1, 1, 1, 1, 1, 1}, // DNC before the first commit
			} {
				if !diffNV(t, label+" multi", freshCheckNV(scratch, gaps), checkNV(forked, gaps)) {
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
