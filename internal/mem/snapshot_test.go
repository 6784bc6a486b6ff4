package mem

import (
	"math/rand/v2"
	"testing"
)

// TestSnapshotRoundTrip: a bank snapshot restores bit-identical contents
// after arbitrary further writes, both onto the source bank and onto a
// structurally identical sibling.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	build := func() (*Memory, []*Region) {
		m := New(FRAM, 64*1024)
		regs := []*Region{
			m.MustAlloc("w", 1000, 2),
			m.MustAlloc("act", 300, 2),
			m.MustAlloc("ctl", 8, 2),
		}
		return m, regs
	}
	m, regs := build()
	for _, r := range regs {
		for i := 0; i < r.Len(); i++ {
			r.Put(i, rng.Int64N(1<<15))
		}
	}
	snap := m.Snapshot(nil, nil)

	// Scribble over everything, then restore in place.
	for _, r := range regs {
		for i := 0; i < r.Len(); i++ {
			r.Put(i, -1)
		}
	}
	if err := snap.RestoreTo(m); err != nil {
		t.Fatal(err)
	}
	sum := func(regs []*Region) (s int64) {
		for _, r := range regs {
			for i := 0; i < r.Len(); i++ {
				s = s*1099511628211 + r.Get(i)
			}
		}
		return s
	}
	want := sum(regs)

	// Restore onto a fresh structurally identical bank.
	m2, regs2 := build()
	if err := snap.RestoreTo(m2); err != nil {
		t.Fatal(err)
	}
	if got := sum(regs2); got != want {
		t.Fatalf("cross-bank restore diverged: %d vs %d", got, want)
	}

	// Layout mismatch must be rejected, not silently corrupt.
	m3 := New(FRAM, 64*1024)
	m3.MustAlloc("w", 1000, 2)
	if err := snap.RestoreTo(m3); err == nil {
		t.Fatal("restore onto mismatched layout succeeded")
	}
}

// TestRestorePagesCopiesOnlyListed: RestorePages rewrites exactly the
// listed pages (a short last page included), marks only their regions
// dirty, and rejects a mismatched layout.
func TestRestorePagesCopiesOnlyListed(t *testing.T) {
	build := func() (*Memory, *Region, *Region) {
		m := New(FRAM, 64*1024)
		return m, m.MustAlloc("a", 3*SnapPageWords+5, 2), m.MustAlloc("b", 10, 2)
	}
	m, a, _ := build()
	for i := 0; i < a.Len(); i++ {
		a.Put(i, int64(i+1))
	}
	snap := m.Snapshot(nil, nil)
	m2, a2, b2 := build()
	if err := snap.RestorePages(m2, []Page{{Region: 0, Page: 1}, {Region: 0, Page: 3}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a2.Len(); i++ {
		want := int64(0)
		if p := i / SnapPageWords; p == 1 || p == 3 {
			want = int64(i + 1)
		}
		if a2.Get(i) != want {
			t.Fatalf("word %d = %d, want %d", i, a2.Get(i), want)
		}
	}
	if !a2.Dirty() || b2.Dirty() {
		t.Errorf("dirty flags a=%v b=%v, want true false", a2.Dirty(), b2.Dirty())
	}
	m3 := New(FRAM, 64*1024)
	m3.MustAlloc("a", 3*SnapPageWords+5, 2)
	if err := snap.RestorePages(m3, nil); err == nil {
		t.Fatal("restore onto mismatched layout succeeded")
	}
}

// TestSnapshotTrainSharesPages: consecutive snapshots share the page
// storage of untouched regions instead of copying it.
func TestSnapshotTrainSharesPages(t *testing.T) {
	m := New(FRAM, 64*1024)
	a := m.MustAlloc("a", 4*SnapPageWords, 2)
	b := m.MustAlloc("b", 4*SnapPageWords, 2)
	for i := 0; i < a.Len(); i++ {
		a.Put(i, int64(i))
	}
	s1 := m.Snapshot(nil, nil)
	b.Put(0, 7) // dirty exactly one page of b
	s2 := m.Snapshot(s1, nil)

	shared, owned := 0, 0
	for ri := range s2.regions {
		for p := range s2.regions[ri].pages {
			if &s2.regions[ri].pages[p][0] == &s1.regions[ri].pages[p][0] {
				shared++
			} else {
				owned++
			}
		}
	}
	if owned != 1 || shared != 7 {
		t.Fatalf("page sharing off: %d owned, %d shared (want 1/7)", owned, shared)
	}

	// The dirty-hint path shares clean pages without comparing.
	b.Put(SnapPageWords, 9)
	s3 := m.Snapshot(s2, func(region, page int) bool { return region == 1 && page == 1 })
	if &s3.regions[1].pages[1][0] == &s2.regions[1].pages[1][0] {
		t.Fatal("dirty page was shared")
	}
	if &s3.regions[0].pages[0][0] != &s2.regions[0].pages[0][0] {
		t.Fatal("clean page was copied despite clean hint")
	}
}

type putRecord struct {
	name string
	i    int
	v    int64
}

type recordObs struct{ puts []putRecord }

func (o *recordObs) OnPut(r *Region, i int, v int64) {
	o.puts = append(o.puts, putRecord{r.Name, i, v})
}

// TestPutObserver: an installed observer sees every Put on existing and
// future regions, and uninstalls cleanly.
func TestPutObserver(t *testing.T) {
	m := New(FRAM, 4096)
	a := m.MustAlloc("a", 4, 2)
	obs := &recordObs{}
	m.SetObserver(obs)
	a.Put(1, 11)
	b := m.MustAlloc("b", 4, 2)
	b.Put(2, 22)
	m.SetObserver(nil)
	a.Put(3, 33)
	want := []putRecord{{"a", 1, 11}, {"b", 2, 22}}
	if len(obs.puts) != len(want) {
		t.Fatalf("observer saw %v, want %v", obs.puts, want)
	}
	for i := range want {
		if obs.puts[i] != want[i] {
			t.Fatalf("observer saw %v, want %v", obs.puts, want)
		}
	}
	if m.IndexOf(a) != 0 || m.IndexOf(b) != 1 || m.RegionAt(1) != b || m.Regions() != 2 {
		t.Fatal("region indexing inconsistent")
	}
}

// TestObserverOnlyOnFRAM: only a FRAM bank may be observed. Installing an
// observer on an SRAM bank panics and leaves the bank and its regions
// unobserved; removing one (nil) is always allowed.
func TestObserverOnlyOnFRAM(t *testing.T) {
	m := New(SRAM, 4096)
	r := m.MustAlloc("scratch", 4, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetObserver on an SRAM bank did not panic")
			}
		}()
		m.SetObserver(&recordObs{})
	}()
	if m.Observed() || r.Observed() {
		t.Error("a refused observer was installed")
	}
	m.SetObserver(nil)
}
