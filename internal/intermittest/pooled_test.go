package intermittest

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

// freshCheck is the fresh-device reference for Check: the schedule runs on
// a newly constructed, identically armed and freshly deployed device
// instead of a rewound fork slot. It is the only place that path lives.
func freshCheck(c *Checker, gaps []int) *ScheduleResult {
	dev := mcu.New(energy.NewFailSchedule(gaps))
	if c.checkWAR {
		dev.EnableWARCheck()
	}
	img, err := core.Deploy(dev, c.qm)
	if err != nil {
		return &ScheduleResult{Runtime: c.rt.Name(), Gaps: gaps, Err: err}
	}
	return c.run(dev, img, gaps)
}

// TestPooledCheckMatchesFresh is the pooled-≡-fresh oracle for fork
// slots: for every runtime, one Checker serves an interleaved history of
// schedules — sampled single failures, multi-failure schedules, the
// immediate-refailure DNC schedule, from-scratch schedules whose first
// failure lies beyond the golden run, and (on Broken) WAR floods — so
// every check runs on a slot dirtied by a different kind of run. Each
// result must be bit-identical to the same schedule on a fresh device,
// with and without WAR checking.
//
// Like the fork oracle it must never skip, and CI greps for its per-row
// PASS lines.
func TestPooledCheckMatchesFresh(t *testing.T) {
	for _, fr := range forkRuntimes() {
		rt, label := fr.rt, fr.label
		qm, x := TinyModel(1)
		if fr.csr {
			qm, x = AdversarialCSRModel(1)
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			for _, war := range []bool{true, false} {
				c, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: war, SnapStride: 256})
				if err != nil {
					t.Fatal(err)
				}
				if !c.Forks() {
					t.Fatalf("%s does not fork: journal unavailable (Resumer regression?)", label)
				}
				total := int(c.TotalOps())
				mid := total / 2
				multi := [][]int{
					{mid, 1, 1, 1, 1, 1, 1, 1}, // immediate refailures: DNC
					{1, 40, 40},
					{total + 3}, // beyond the run: from scratch on the slot
					{mid, 500, 500},
					{}, // continuous power, from scratch
					{total, 7},
				}
				var scheds [][]int
				for k, b := 0, 1; b <= total; k, b = k+1, b+total/24+1 {
					scheds = append(scheds, []int{b}, multi[k%len(multi)])
				}
				scheds = append(scheds, []int{total})
				bad, dnc, flood := 0, 0, 0
				for _, gaps := range scheds {
					want, got := freshCheck(c, gaps), c.Check(gaps)
					if want.DNC {
						dnc++
					}
					flood += want.WARCount
					if !diffResults(t, label+" pooled", want, got) {
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
// once. The tile runtime allocates and releases its task regions on every
// run, so slots change hands with the most per-run state to rewind.
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
