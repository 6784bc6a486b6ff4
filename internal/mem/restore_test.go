package mem

import "testing"

// protoBank builds a bank with a large "weights" region and a small "act"
// region, deterministically initialized, plus its snapshot — the shape of
// a provisioning prototype.
func protoBank(t *testing.T) (*Memory, *Snapshot) {
	t.Helper()
	m := New(FRAM, 64*1024)
	w := m.MustAlloc("weights", 3*SnapPageWords, 2)
	act := m.MustAlloc("act", 100, 2)
	for i := 0; i < w.Len(); i++ {
		w.Put(i, int64(i*7))
	}
	for i := 0; i < act.Len(); i++ {
		act.Put(i, int64(i))
	}
	return m, m.Snapshot(nil, nil)
}

func TestRestoreInPlaceRewritesOnlyModifiedPages(t *testing.T) {
	m, snap := protoBank(t)
	hint := NewDirtyPages(snap)

	// First restore right after snapshotting: every region is dirty (Put
	// marked it), every page compares clean.
	st, err := snap.RestoreInPlace(m, hint)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 0 || st.Skipped != 0 || st.Clean == 0 {
		t.Errorf("post-snapshot restore = %+v, want all pages compared clean", st)
	}
	if m.RegionAt(0).Dirty() || m.RegionAt(1).Dirty() {
		t.Error("restore should clear region dirty flags")
	}

	// A run that only touches act: weights stay clean and are skipped
	// wholesale; act's one page is compared, found modified, copied, and
	// hinted.
	act := m.RegionAt(1)
	act.Put(3, 999)
	st, err = snap.RestoreInPlace(m, hint)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 3 || st.Copied != 1 || st.Clean != 0 {
		t.Errorf("act-only restore = %+v, want 3 skipped / 1 copied", st)
	}
	if act.Get(3) != 3 {
		t.Errorf("act[3] = %d after restore, want 3", act.Get(3))
	}
	if hint.Marked() != 1 {
		t.Errorf("hint marks %d pages, want 1", hint.Marked())
	}

	// Next round: the hinted page is copied without comparing even though
	// this run never touched it... provided the region is dirty at all.
	act.Put(0, 5)
	st, err = snap.RestoreInPlace(m, hint)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 1 || st.Clean != 0 || st.Skipped != 3 {
		t.Errorf("hinted restore = %+v, want the hinted page copied outright", st)
	}
	if act.Get(0) != 0 {
		t.Errorf("act[0] = %d after restore, want 0", act.Get(0))
	}
}

func TestRestoreInPlaceWordsMarksButROWordsDoesNot(t *testing.T) {
	m, snap := protoBank(t)
	if _, err := snap.RestoreInPlace(m, nil); err != nil {
		t.Fatal(err)
	}
	w := m.RegionAt(0)
	_ = w.ROWords()[5]
	if w.Dirty() {
		t.Error("ROWords must not mark the region dirty")
	}
	w.Words()[5] = -1
	if !w.Dirty() {
		t.Error("Words must mark the region dirty")
	}
	st, err := snap.RestoreInPlace(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 1 {
		t.Errorf("restore after raw write = %+v, want exactly the written page copied", st)
	}
	if w.Get(5) != 35 {
		t.Errorf("weights[5] = %d after restore, want 35", w.Get(5))
	}
}

func TestRestoreInPlaceKeepsRegionsLive(t *testing.T) {
	m, snap := protoBank(t)
	w, act := m.RegionAt(0), m.RegionAt(1)
	wWords := w.ROWords()
	act.Put(0, 42)
	if _, err := snap.RestoreInPlace(m, nil); err != nil {
		t.Fatal(err)
	}
	if m.RegionAt(0) != w || m.RegionAt(1) != act {
		t.Error("restore must not replace Region objects")
	}
	if &wWords[0] != &w.ROWords()[0] {
		t.Error("restore must not reallocate backing storage")
	}
}

func TestRestoreInPlaceStructureMismatch(t *testing.T) {
	_, snap := protoBank(t)
	other := New(FRAM, 64*1024)
	other.MustAlloc("weights", 3*SnapPageWords, 2)
	if _, err := snap.RestoreInPlace(other, nil); err == nil {
		t.Error("restore onto a structurally different bank must fail")
	}

	m2, snap2 := protoBank(t)
	if _, err := snap.RestoreInPlace(m2, NewDirtyPages(snap2)); err != nil {
		t.Fatal(err) // same shape: fine
	}
	short := &DirtyPages{pages: make([][]bool, 1)}
	if _, err := snap.RestoreInPlace(m2, short); err == nil {
		t.Error("misshapen hint must fail")
	}
}

// TestRestoreInPlaceLeavesTrailingRegions: a bank holding regions beyond
// the snapshot's (a runtime kept resident on a pooled slot) restores its
// leading regions and leaves the trailing ones, contents and dirty flag
// alike, to their owner; a bank whose leading regions differ still fails.
func TestRestoreInPlaceLeavesTrailingRegions(t *testing.T) {
	m, snap := protoBank(t)
	log := m.MustAlloc("log", 16, 4)
	log.Put(3, 42)
	m.RegionAt(1).Put(0, -1)
	if _, err := snap.RestoreInPlace(m, NewDirtyPages(snap)); err != nil {
		t.Fatal(err)
	}
	if got := m.RegionAt(1).Get(0); got != 0 {
		t.Errorf("leading region not restored: act[0] = %d, want 0", got)
	}
	if log.Get(3) != 42 || !log.Dirty() {
		t.Errorf("trailing region touched: log[3] = %d, dirty %v", log.Get(3), log.Dirty())
	}

	other := New(FRAM, 64*1024)
	other.MustAlloc("weights", 3*SnapPageWords, 2)
	other.MustAlloc("log", 100, 2)
	other.MustAlloc("act", 100, 2)
	if _, err := snap.RestoreInPlace(other, nil); err == nil {
		t.Error("restore onto a bank whose leading regions differ must fail")
	}
}

func TestClearVolatileMarksDirty(t *testing.T) {
	m := New(SRAM, 1024)
	r := m.MustAlloc("buf", 8, 2)
	if r.Dirty() {
		t.Error("fresh region should start clean")
	}
	m.ClearVolatile()
	if !r.Dirty() {
		t.Error("ClearVolatile must mark SRAM regions dirty")
	}
}
