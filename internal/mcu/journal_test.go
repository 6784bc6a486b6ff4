package mcu_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// rig allocates a deterministic region layout used by the scripted
// workload, so golden, scratch, and fork devices all match.
type rig struct {
	dev              *mcu.Device
	state, buf, roll *mem.Region
	scratch          *mem.Region
}

func newRig(power energy.System) *rig {
	d := mcu.New(power)
	d.EnableWARCheck()
	r := &rig{
		dev:     d,
		state:   d.FRAM.MustAlloc("state", 64, 2),
		buf:     d.FRAM.MustAlloc("buf", 600, 2),
		roll:    d.FRAM.MustAlloc("roll", 600, 2),
		scratch: d.FRAM.MustAlloc("scratch", 64, 2),
	}
	// Setup-time host writes, as deploy/LoadInput do.
	for i := 0; i < r.buf.Len(); i++ {
		r.buf.Put(i, int64(i*3+1))
	}
	return r
}

// workload issues a deterministic mix of everything the journal must
// capture: scalar loads/stores, bulk store and DMA batches, section flips,
// commits, host-side writes between charged ops, and WAR traffic (reads
// followed by unlogged overwrites).
func (r *rig) workload() {
	d := r.dev
	for step := 0; step < 40; step++ {
		layer := "conv"
		if step%3 == 1 {
			layer = "dense"
		}
		d.SetSection(layer, mcu.PhaseKernel)
		base := (step * 13) % (r.buf.Len() - 32)
		for i := 0; i < 8; i++ {
			v := d.Load(r.buf, base+i)
			d.Store(r.scratch, i%r.scratch.Len(), v+int64(step))
		}
		// WAR hazard: read a rolling word, then overwrite it un-logged.
		w := step % r.roll.Len()
		_ = d.Load(r.roll, w)
		d.Store(r.roll, w, int64(step))

		d.SetSection(layer, mcu.PhaseControl)
		vs := make([]int64, 24)
		for i := range vs {
			vs[i] = int64(step*100 + i)
		}
		d.StoreRange(r.roll, (step*24)%(r.roll.Len()-24), vs)
		d.DMA(r.buf, (step*16)%(r.buf.Len()-16), r.roll, 0, 16)
		d.Ops(mcu.OpFixedMul, 20+step%7)
		// Host-side bookkeeping write between charged ops.
		r.state.Put(step%r.state.Len(), int64(step*7))
		if step%4 == 3 {
			d.StoreIndex(r.state, 0, int64(step))
			d.Progress()
		}
	}
}

// framSum walks every FRAM word through the public region accessors.
func framSum(d *mcu.Device) int64 {
	var s int64 = 1469598103
	for ri := 0; ri < d.FRAM.Regions(); ri++ {
		r := d.FRAM.RegionAt(ri)
		for i := 0; i < r.Len(); i++ {
			s = s*1099511628211 + r.Get(i)
		}
	}
	return s
}

// opsUntilFail drives plain ops until the next brown-out, pinning the
// power system's hidden cursor position.
func opsUntilFail(d *mcu.Device) int {
	n := 0
	d.Attempt(func() {
		for i := 0; i < 200_000; i++ {
			d.Op(mcu.OpBranch)
			n++
		}
	})
	return n
}

// scratchAt runs the workload from scratch to its first brown-out on op
// b, then reboots. The second gap makes the post-reboot cursor position
// observable.
func scratchAt(t *testing.T, b int64) *rig {
	t.Helper()
	scratch := newRig(energy.NewFailSchedule([]int{int(b), 1000}))
	if scratch.dev.Attempt(scratch.workload) {
		t.Fatalf("b=%d: scratch run did not brown out", b)
	}
	if err := scratch.dev.Reboot(); err != nil {
		t.Fatalf("b=%d: %v", b, err)
	}
	return scratch
}

// forkMatchesScratch restores the journal's prefix for boundary b onto a
// fresh identically-deployed device, after prep (if non-nil) has run on
// it, and compares it with the scratch run to the same brown-out,
// returning the scratch device's stats.
func forkMatchesScratch(t *testing.T, j *mcu.Journal, b int64, prep func(*mcu.Device)) *mcu.Stats {
	t.Helper()
	scratch := scratchAt(t, b)
	fork := newRig(energy.NewFailSchedule([]int{int(b), 1000}))
	if prep != nil {
		prep(fork.dev)
	}
	if err := j.RestorePrefix(fork.dev, b); err != nil {
		t.Fatalf("b=%d: %v", b, err)
	}
	got, want := *fork.dev.Stats(), *scratch.dev.Stats()
	if got.Commits != want.Commits || got.WastedCycles != want.WastedCycles || got.WastedNJ != want.WastedNJ {
		t.Fatalf("b=%d: fork commits/wasted cycles/wasted nJ = %d/%d/%v, scratch %d/%d/%v",
			b, got.Commits, got.WastedCycles, got.WastedNJ, want.Commits, want.WastedCycles, want.WastedNJ)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("b=%d: fork stats diverged:\n got %+v\nwant %+v", b, got, want)
	}
	if got, want := framSum(fork.dev), framSum(scratch.dev); got != want {
		t.Fatalf("b=%d: fork FRAM diverged", b)
	}
	if fork.dev.WARCount() != scratch.dev.WARCount() {
		t.Fatalf("b=%d: WAR count %d vs %d", b, fork.dev.WARCount(), scratch.dev.WARCount())
	}
	if got, want := fork.dev.WARViolations(), scratch.dev.WARViolations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("b=%d: WAR records diverged:\n got %v\nwant %v", b, got, want)
	}
	gl, gp := fork.dev.Section()
	wl, wp := scratch.dev.Section()
	if gl != wl || gp != wp {
		t.Fatalf("b=%d: section %s/%s vs %s/%s", b, gl, gp, wl, wp)
	}
	if got, want := opsUntilFail(fork.dev), opsUntilFail(scratch.dev); got != want {
		t.Fatalf("b=%d: forward brown-out position %d vs %d", b, got, want)
	}
	return &want
}

// TestJournalForkMatchesScratch: for brown-out placements across the whole
// run — including mid-batch ones — a fork served from the golden journal
// is bit-identical to a from-scratch run stopped at its first brown-out
// and rebooted: same stats, same FRAM image, same WAR verdicts, same
// section, same forward power behavior. Three named rows pin the commit
// and wasted-work counters where their reconstruction has edges: a
// brown-out on op 1 (nothing accounted yet), on the op just after the
// first commit (no waste), and in the middle of the second region (waste
// measured from the first commit). The reverse-tokens row restores onto a
// fork that registered the workload's sections in the reverse of the
// recording's order, so every journal token translates to another index.
func TestJournalForkMatchesScratch(t *testing.T) {
	golden := newRig(energy.Continuous{})
	j := golden.dev.StartJournal(512)
	golden.workload()
	golden.dev.StopJournal()
	total := j.MaxOp()
	if total < 1000 {
		t.Fatalf("workload too small to exercise the train: %d ops", total)
	}
	if j.Snapshots() < 3 {
		t.Fatalf("snapshot train too short: %d", j.Snapshots())
	}

	// firstWith returns the smallest boundary whose scratch run has
	// committed n times before failing: the op just after the n-th commit.
	firstWith := func(n int) int64 {
		return int64(sort.Search(int(total), func(i int) bool {
			return scratchAt(t, int64(i)+1).dev.Stats().Commits >= n
		})) + 1
	}
	afterCommit, second := firstWith(1), firstWith(2)
	if second > total {
		t.Fatalf("workload commits fewer than twice in %d ops", total)
	}
	t.Run("op-1", func(t *testing.T) {
		st := forkMatchesScratch(t, j, 1, nil)
		if st.Commits != 0 || st.WastedCycles != 0 || st.WastedNJ != 0 {
			t.Errorf("brown-out on op 1: %d commits, %d cycles / %v nJ wasted; want none",
				st.Commits, st.WastedCycles, st.WastedNJ)
		}
	})
	t.Run("after-commit", func(t *testing.T) {
		st := forkMatchesScratch(t, j, afterCommit, nil)
		if st.Commits != 1 || st.WastedCycles != 0 || st.WastedNJ != 0 {
			t.Errorf("brown-out at op %d, just after the first commit: %d commits, %d cycles / %v nJ wasted; want 1 and none",
				afterCommit, st.Commits, st.WastedCycles, st.WastedNJ)
		}
	})
	t.Run("mid-region", func(t *testing.T) {
		b := (afterCommit + second) / 2
		st := forkMatchesScratch(t, j, b, nil)
		if st.Commits != 1 || st.WastedCycles <= 0 || st.WastedNJ <= 0 {
			t.Errorf("brown-out at op %d, mid region: %d commits, %d cycles / %v nJ wasted; want 1 and some",
				b, st.Commits, st.WastedCycles, st.WastedNJ)
		}
	})
	t.Run("sweep", func(t *testing.T) {
		for b := int64(1); b <= total; b += 7 {
			forkMatchesScratch(t, j, b, nil)
		}
	})
	t.Run("reverse-tokens", func(t *testing.T) {
		// The recording registers conv/kernel, conv/control, dense/kernel
		// and dense/control after boot, in that order.
		reverse := func(d *mcu.Device) {
			for _, l := range []string{"dense", "conv"} {
				d.SectionToken(l, mcu.PhaseControl)
				d.SectionToken(l, mcu.PhaseKernel)
			}
		}
		for b := int64(1); b <= total; b += 53 {
			forkMatchesScratch(t, j, b, reverse)
		}
	})
}

// TestJournalBoundsRejected: placements outside the recorded range, and
// restores from a journal still recording, error instead of silently
// restoring garbage.
func TestJournalBoundsRejected(t *testing.T) {
	golden := newRig(energy.Continuous{})
	j := golden.dev.StartJournal(0)
	golden.workload()
	fork := newRig(energy.NewFailSchedule([]int{1}))
	if err := j.RestorePrefix(fork.dev, 1); err == nil {
		t.Fatal("restore from a journal still recording accepted")
	}
	golden.dev.StopJournal()

	if err := j.RestorePrefix(fork.dev, 0); err == nil {
		t.Fatal("boundary 0 accepted")
	}
	if err := j.RestorePrefix(fork.dev, j.MaxOp()+1); err == nil {
		t.Fatal("boundary past the recording accepted")
	}
}
