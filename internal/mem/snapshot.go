package mem

import "fmt"

// SnapPageWords is the page granularity of bank snapshots: unchanged pages
// are shared (by slice reference) with the previous snapshot in a train, so
// a stride-S train over a long run costs a small multiple of live memory
// rather than S full copies.
const SnapPageWords = 256

type regionSnap struct {
	name  string
	words int
	pages [][]int64 // page p covers words [p*SnapPageWords, ...); last may be short
}

// Snapshot is an immutable copy of a bank's full contents, taken by
// Memory.Snapshot. Pages unchanged since the previous snapshot alias the
// previous snapshot's storage; callers must treat snapshots as read-only.
type Snapshot struct {
	kind    Kind
	regions []regionSnap
}

// Snapshot captures the bank's contents. prev, if non-nil and structurally
// identical (same region count, names, and lengths), is the previous
// snapshot in the train: pages equal to their prev counterpart are shared
// instead of copied. dirty, if non-nil, is a hint that page p of region r
// may have changed since prev; clean pages are shared without comparison.
func (m *Memory) Snapshot(prev *Snapshot, dirty func(region, page int) bool) *Snapshot {
	s := &Snapshot{kind: m.kind, regions: make([]regionSnap, len(m.regions))}
	if prev != nil && !m.matches(prev) {
		prev = nil
	}
	for ri, r := range m.regions {
		n := len(r.words)
		np := (n + SnapPageWords - 1) / SnapPageWords
		rs := regionSnap{name: r.Name, words: n, pages: make([][]int64, np)}
		for p := 0; p < np; p++ {
			lo := p * SnapPageWords
			hi := lo + SnapPageWords
			if hi > n {
				hi = n
			}
			live := r.words[lo:hi]
			if prev != nil {
				old := prev.regions[ri].pages[p]
				if (dirty != nil && !dirty(ri, p)) || pageEqual(live, old) {
					rs.pages[p] = old
					continue
				}
			}
			rs.pages[p] = append([]int64(nil), live...)
		}
		s.regions[ri] = rs
	}
	return s
}

func pageEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *Memory) matches(s *Snapshot) bool {
	return len(s.regions) == len(m.regions) && m.extends(s)
}

// extends reports whether the bank's leading regions match the snapshot's
// layout (names and lengths) one for one; the bank may hold more.
func (m *Memory) extends(s *Snapshot) bool {
	if s.kind != m.kind || len(s.regions) > len(m.regions) {
		return false
	}
	for ri, rs := range s.regions {
		if r := m.regions[ri]; rs.name != r.Name || rs.words != len(r.words) {
			return false
		}
	}
	return true
}

// RestoreTo copies the snapshot's contents into a structurally identical
// bank — the bank the snapshot was taken from, or another bank whose
// region list (count, names, lengths) matches word for word, as a fork
// device's does after a deterministic re-deploy.
func (s *Snapshot) RestoreTo(m *Memory) error {
	if !m.matches(s) {
		return fmt.Errorf("mem: snapshot does not match %s bank layout (%d regions vs %d)",
			m.kind, len(s.regions), len(m.regions))
	}
	for ri, rs := range s.regions {
		r := m.regions[ri]
		r.dirty = true
		for p, page := range rs.pages {
			copy(r.words[p*SnapPageWords:], page)
		}
	}
	return nil
}

// Page names one snapshot page: page Page of the bank's Region-th region.
type Page struct {
	Region, Page int32
}

// RestorePages copies the listed pages of the snapshot into a
// structurally identical bank (as RestoreTo requires) and marks their
// regions dirty, leaving every other page as it is. It is RestoreTo for a
// bank known to equal the snapshot everywhere else.
func (s *Snapshot) RestorePages(m *Memory, pages []Page) error {
	if !m.matches(s) {
		return fmt.Errorf("mem: snapshot does not match %s bank layout (%d regions vs %d)",
			m.kind, len(s.regions), len(m.regions))
	}
	for _, p := range pages {
		r := m.regions[p.Region]
		r.dirty = true
		copy(r.words[int(p.Page)*SnapPageWords:], s.regions[p.Region].pages[p.Page])
	}
	return nil
}
