package intermittest

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// freshCheck is the fresh-device reference for Check: the schedule runs on
// a newly constructed, identically armed and freshly deployed device
// instead of a rewound fork slot, with the runtime prepared for this run
// alone and released after it, as its Infer (core.InferOnce) does. It is
// the only place that path lives.
func freshCheck(c *Checker, gaps []int) *ScheduleResult {
	return freshCheckNV(c, gaps).ScheduleResult
}

// freshCheckNV is freshCheck plus the digest of the banks the run left,
// taken before the prepared runtime's regions are released.
func freshCheckNV(c *Checker, gaps []int) nvResult {
	dev := mcu.New(energy.NewFailSchedule(gaps))
	if c.checkWAR {
		dev.EnableWARCheck()
	}
	img, err := core.Deploy(dev, c.qm)
	if err != nil {
		return nvResult{&ScheduleResult{Runtime: c.name, Gaps: gaps, Err: err}, 0}
	}
	p, err := c.rt.Prepare(img)
	if err != nil {
		return nvResult{&ScheduleResult{Runtime: c.name, Gaps: gaps, Err: err}, 0}
	}
	defer p.Release()
	res := c.run(dev, img, p, gaps)
	return nvResult{res, bankDigest(dev)}
}

// scratchChecker returns a checker pinned to the from-scratch path, whose
// freshCheckNV runs are the oracles' reference.
func scratchChecker(t *testing.T, qm *dnn.QuantModel, x []float64, rt core.Runtime, war bool) *Checker {
	t.Helper()
	c, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: war, forceScratch: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Forks() {
		t.Fatal("forceScratch checker still forks")
	}
	return c
}

// TestPooledCheckMatchesFresh is the pooled-≡-fresh oracle for fork
// slots: for every runtime, one Checker serves an interleaved history of
// schedules — sampled single failures, each followed by short
// refailures there, multi-failure schedules, the immediate-refailure DNC
// schedule, from-scratch schedules whose first failure lies beyond the
// golden run, and (on Broken) WAR floods — so every check runs on a slot
// dirtied by a different kind of run. Each
// result must be bit-identical to the same schedule simulated from
// scratch on a fresh device, with and without WAR checking. The reference
// comes from a forceScratch checker, which records no journal: one that
// forked from the pooled checker's own journal would share any fault in
// Journal.RestorePrefix with it.
//
// Every row also compares the final FRAM and SRAM image (diffNV), and
// each runtime's from-scratch row pins that a check which restores no
// recorded image still starts from a fresh device's: the slot's resident
// runtime state (a tile redo log, TAILS's LEA scratch) is reset, not
// inherited. Like the fork oracle it must never skip, and CI greps for
// its per-row PASS lines.
func TestPooledCheckMatchesFresh(t *testing.T) {
	for _, fr := range forkRuntimes() {
		rt, label := fr.rt, fr.label
		qm, x := TinyModel(1)
		if fr.csr {
			qm, x = AdversarialCSRModel(1)
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			// The from-scratch rows: a check that never forks restores no
			// recorded image, so it starts from whatever the slot's
			// rewind and the runtime's own reset leave. Each runs right
			// after a check that filled the slot's resident state (a
			// complete run, a DNC), and must leave the fresh device's
			// NV image.
			t.Run("from-scratch", func(t *testing.T) {
				c, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: true})
				if err != nil {
					t.Fatal(err)
				}
				scratch := scratchChecker(t, qm, x, rt, true)
				total := int(c.TotalOps())
				for _, gaps := range [][]int{{total + 3}, {}, {0, 1, 1, 1, 1, 1, 1, 1}} {
					for _, prev := range [][]int{{total}, {total / 2, 1, 1, 1, 1, 1, 1, 1}} {
						c.Check(prev)
						diffNV(t, fmt.Sprintf("%s %v after %v", label, gaps, prev), freshCheckNV(scratch, gaps), checkNV(c, gaps))
					}
				}
			})
			for _, war := range []bool{true, false} {
				c, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: war, SnapStride: 256})
				if err != nil {
					t.Fatal(err)
				}
				if !c.Forks() {
					t.Fatalf("%s does not fork: journal unavailable (short journal?)", label)
				}
				scratch := scratchChecker(t, qm, x, rt, war)
				total := int(c.TotalOps())
				mid := total / 2
				multi := [][]int{
					{mid, 1, 1, 1, 1, 1, 1, 1}, // immediate refailures: DNC
					{1, 40, 40},
					{total + 3}, // beyond the run: from scratch on the slot
					{mid, 500, 500},
					{}, // continuous power, from scratch
					{total, 7},
					// From scratch (a first gap below 1 never forks), DNC
					// before the first commit: the run leaves the slot's
					// resident runtime state as its reset left it.
					{0, 1, 1, 1, 1, 1, 1, 1},
				}
				var scheds [][]int
				for k, b := 0, 1; b <= total; k, b = k+1, b+total/24+1 {
					// Refailures a few ops past the cursor load end in a
					// DNC that can stop mid checkpoint period, leaving
					// ckpt-8's volatile iteration count nonzero: the next
					// check's first attempt must not inherit it.
					scheds = append(scheds, []int{b}, []int{b, 10, 10, 10, 10, 10, 10, 10}, multi[k%len(multi)])
				}
				scheds = append(scheds, []int{total})
				bad, dnc, flood := 0, 0, 0
				for _, gaps := range scheds {
					want, got := freshCheckNV(scratch, gaps), checkNV(c, gaps)
					if want.DNC {
						dnc++
					}
					flood += want.WARCount
					if !diffNV(t, label+" pooled", want, got) {
						if bad++; bad >= 3 {
							t.Fatal("too many divergences; stopping early")
						}
					}
				}
				if dnc == 0 {
					t.Errorf("%s: no schedule ran to DNC; the history lacks its worst polluter", label)
				}
				if label == "broken" && war && flood == 0 {
					t.Error("broken: no WAR violations in the history; the flood is missing")
				}
			}
		})
	}
}

// TestCheckStatsOwned pins that a result's Stats are its own: a second
// Check on the same Checker reuses the first one's fork slot and must not
// overwrite the accounting the first result already returned.
func TestCheckStatsOwned(t *testing.T) {
	qm, x := TinyModel(1)
	c, err := NewCheckerOpt(qm, x, sonic.SONIC{}, Options{CheckWAR: true})
	if err != nil {
		t.Fatal(err)
	}
	gaps := []int{int(c.TotalOps()) / 2}
	want := freshCheck(c, gaps).Stats
	first := c.Check(gaps)
	second := c.Check([]int{1, 40, 40})
	if reflect.DeepEqual(second.Stats, want) {
		t.Fatal("the two schedules ran identical accounting; the test cannot see aliasing")
	}
	if !reflect.DeepEqual(first.Stats, want) {
		t.Errorf("first Check's Stats changed under a second Check:\ngot  %+v\nwant %+v", first.Stats, want)
	}
}

// TestConcurrentChecksMatchFresh drives one Checker from several
// goroutines at once, as SweepRuntime's workers do: each check holds its
// own fork slot, so every result must still equal the fresh-device
// reference, and the free list never holds more slots than checks ran at
// once. The tile runtime keeps its task runtime and graph resident on each
// slot, so slots change hands with the most runtime state to reset.
func TestConcurrentChecksMatchFresh(t *testing.T) {
	qm, x := TinyModel(1)
	c, err := NewCheckerOpt(qm, x, baseline.Tile{TileSize: 8}, Options{CheckWAR: true})
	if err != nil {
		t.Fatal(err)
	}
	total := int(c.TotalOps())
	var scheds [][]int
	for b := 1; b <= total; b += total/64 + 1 {
		scheds = append(scheds, []int{b}, []int{b, 1, 1, 1, 1, 1, 1, 1})
	}
	want := make([]*ScheduleResult, len(scheds))
	for i, gaps := range scheds {
		want[i] = freshCheck(c, gaps)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(scheds); i += workers {
				diffResults(t, "concurrent", want[i], c.Check(scheds[i]))
			}
		}(w)
	}
	wg.Wait()
	if n := len(c.slots); n < 1 || n > workers {
		t.Errorf("free list holds %d fork slots after %d concurrent workers", n, workers)
	}
}

// TestSweepClassesMatchChecks is the oracle for the sweep's
// equivalence-class dedup: at every boundary of an exhaustive WAR-armed
// run, the verdict cloneResult derives from the class representative's
// check equals the verdict of checking that boundary itself — DNC, error,
// mismatch, WAR count and the retained WAR records byte for byte. Broken
// floods the WAR log past WARMaxKeep, so the capped record lists are
// rebuilt at every boundary.
func TestSweepClassesMatchChecks(t *testing.T) {
	qm, x := TinyModel(1)
	for _, rt := range []core.Runtime{Broken{}, baseline.Tile{TileSize: 8}, sonic.SONIC{}} {
		t.Run(rt.Name(), func(t *testing.T) {
			t.Parallel()
			c, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: true})
			if err != nil {
				t.Fatal(err)
			}
			bounds, exhaustive := boundaries(c.TotalOps(), Options{}.withDefaults())
			if !exhaustive {
				t.Fatal("tiny model's sweep is not exhaustive")
			}
			repOf := c.classReps(bounds)
			cloned, bad := 0, 0
			for i, b := range bounds {
				r := repOf[i]
				if r == i {
					continue
				}
				cloned++
				want := c.Check([]int{b})
				want.Stats = nil // clones carry no per-section accounting
				got := c.cloneResult(c.Check([]int{bounds[r]}), bounds[r], []int{b})
				if !diffResults(t, fmt.Sprintf("%s boundary %d (class of %d)", rt.Name(), b, bounds[r]), want, got) {
					if bad++; bad >= 3 {
						t.Fatal("too many divergences; stopping early")
					}
				}
			}
			if cloned == 0 {
				t.Fatal("no boundary was served by its class representative")
			}
		})
	}
}

// TestForkSlotKeepsRuntimeResident pins that the runtime prepared on a
// fork slot stays there across checks: consecutive checks on one Checker
// reuse the one slot and its one prepared runtime (Slot.Run), its banks
// keep their region counts, and every region — the deploy's and the
// runtime's own, the tile task state and redo log or the TAILS LEA
// scratch — is the very object it was, through forked, from-scratch,
// multi-failure and DNC checks alike. Base and the SONIC drive loop
// (sonic, ckpt-8, broken) keep no regions of their own.
// Steady-state WAR-armed tile-32 and sonic checks stay within a small
// allocation budget, which rebuilding the task runtime and graph per
// check, or the device's section accounting per reset or restore, breaks.
func TestForkSlotKeepsRuntimeResident(t *testing.T) {
	qm, x := TinyModel(1)
	deployed := mcu.New(energy.Continuous{})
	if _, err := core.Deploy(deployed, qm); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rt         core.Runtime
		fram, sram []string // resident regions after the deployed ones
		maxAllocs  float64  // steady-state allocations per check, 0: unchecked
	}{
		{baseline.Tile{TileSize: 8}, []string{"task.state", "task.redolog"}, nil, 0},
		{baseline.Tile{TileSize: 32}, []string{"task.state", "task.redolog"}, nil, 14},
		{baseline.Tile{TileSize: 128}, []string{"task.state", "task.redolog"}, nil, 0},
		{tails.TAILS{}, nil, []string{"lea.in", "lea.out", "lea.coef"}, 0},
		{baseline.Base{}, nil, nil, 0},
		{sonic.SONIC{}, nil, nil, 13},
		{checkpoint.Checkpoint{Interval: 8}, nil, nil, 0},
		{Broken{}, nil, nil, 0},
	} {
		t.Run(tc.rt.Name(), func(t *testing.T) {
			c, err := NewCheckerOpt(qm, x, tc.rt, Options{CheckWAR: true})
			if err != nil {
				t.Fatal(err)
			}
			total := int(c.TotalOps())
			c.Check([]int{total / 2})
			if len(c.slots) != 1 {
				t.Fatalf("free list holds %d slots after one check, want 1", len(c.slots))
			}
			sl := c.slots[0]
			run := sl.Run
			if run == nil {
				t.Fatal("slot holds no prepared runtime")
			}
			banks := func() [][]*mem.Region {
				var out [][]*mem.Region
				for _, m := range []*mem.Memory{sl.Dev.FRAM, sl.Dev.SRAM} {
					rs := make([]*mem.Region, m.Regions())
					for i := range rs {
						rs[i] = m.RegionAt(i)
					}
					out = append(out, rs)
				}
				return out
			}
			layout := banks()
			for bi, want := range [][]string{tc.fram, tc.sram} {
				var pre int
				if bi == 0 {
					pre = deployed.FRAM.Regions()
				}
				var got []string
				for _, r := range layout[bi][min(pre, len(layout[bi])):] {
					got = append(got, r.Name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("bank %d: resident regions %q after the %d deployed, want %q", bi, got, pre, want)
				}
			}
			for _, gaps := range [][]int{
				{1, 40, 40},
				{},
				{total + 3},
				{total / 3, 1, 1, 1, 1, 1, 1, 1},
				{0, 1, 1, 1, 1, 1, 1, 1},
				{total},
			} {
				res := c.Check(gaps)
				if len(c.slots) != 1 || c.slots[0] != sl {
					t.Fatalf("gaps %v: the check did not run on the resident slot", gaps)
				}
				if sl.Run != run {
					t.Fatalf("gaps %v: the slot's prepared runtime was replaced", gaps)
				}
				if res.Err != nil {
					t.Fatalf("gaps %v: %v", gaps, res.Err)
				}
				if !reflect.DeepEqual(banks(), layout) {
					t.Fatalf("gaps %v: the slot's regions changed", gaps)
				}
			}
			if tc.maxAllocs == 0 {
				return
			}
			gaps := []int{0}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				i++
				gaps[0] = 1 + (i*7919)%total
				c.Check(gaps)
			})
			if allocs > tc.maxAllocs {
				t.Errorf("steady-state check allocates %.1f objects, want <= %.0f", allocs, tc.maxAllocs)
			}
			t.Logf("steady-state check: %.1f allocs", allocs)
		})
	}
}
