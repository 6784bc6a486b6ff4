package mem

import "fmt"

// DirtyPages is a reusable page-granularity hint set over one snapshot's
// region layout, fed back by RestoreInPlace: a page marked here was found
// modified by some previous restore over the same bank, so the next
// restore copies it outright instead of comparing first. Marks only ever
// accumulate — copying a page that happens to be clean is harmless, while
// re-verifying one that is usually dirty wastes a read pass. One hint set
// belongs to one (snapshot, bank) pairing, e.g. a fleet pool slot.
type DirtyPages struct {
	pages [][]bool
}

// NewDirtyPages returns an empty hint set shaped like s.
func NewDirtyPages(s *Snapshot) *DirtyPages {
	dp := &DirtyPages{pages: make([][]bool, len(s.regions))}
	for i, rs := range s.regions {
		dp.pages[i] = make([]bool, len(rs.pages))
	}
	return dp
}

// Marked counts the pages currently hinted dirty.
func (dp *DirtyPages) Marked() int {
	n := 0
	for _, reg := range dp.pages {
		for _, d := range reg {
			if d {
				n++
			}
		}
	}
	return n
}

// RestoreStats reports what one RestoreInPlace actually did, in pages.
type RestoreStats struct {
	Copied  int // rewritten: hinted dirty, or compared and found modified
	Clean   int // compared and found identical to the snapshot
	Skipped int // not even compared: their whole region was never written
}

// RestoreInPlace rewrites the bank's contents to equal the snapshot
// without touching its structure: the Memory, its Region objects, and
// their backing slices all stay live, so pointers into the bank (a
// deployed core.Image, a protocol-exemption list) survive the restore.
// This is the provisioning primitive behind pooled fleet devices.
//
// The bank may hold regions beyond the snapshot's, allocated after the
// snapshot's source was taken — a runtime's state kept resident on a
// pooled slot (core.Slot). Only the leading regions must match the
// snapshot's layout; the trailing ones are left untouched for their owner
// to reset.
//
// Regions whose Dirty flag is clear are trusted to already hold the
// snapshot's contents and are skipped wholesale. That trust is the
// caller's contract: it holds when the bank was produced by the same
// deterministic procedure as the snapshot's source (a re-deploy of the
// same model image) or by a previous restore of this same snapshot, and
// every write since went through the tracked paths (Put, SetRange,
// Words, ClearVolatile). Within a dirty region, pages hinted in hint are
// copied outright; the rest are compared and copied only on mismatch,
// with fresh mismatches fed back into hint. Every processed region's
// Dirty flag is cleared. hint may be nil (compare everything dirty); when
// non-nil it must have been built by NewDirtyPages over this snapshot.
func (s *Snapshot) RestoreInPlace(m *Memory, hint *DirtyPages) (RestoreStats, error) {
	var st RestoreStats
	if !m.extends(s) {
		return st, fmt.Errorf("mem: snapshot does not match %s bank layout (%d regions vs %d)",
			m.kind, len(s.regions), len(m.regions))
	}
	if hint != nil && len(hint.pages) != len(s.regions) {
		return st, fmt.Errorf("mem: dirty-page hint shaped for %d regions, snapshot has %d",
			len(hint.pages), len(s.regions))
	}
	for ri, rs := range s.regions {
		r := m.regions[ri]
		if !r.dirty {
			st.Skipped += len(rs.pages)
			continue
		}
		var marks []bool
		if hint != nil {
			if len(hint.pages[ri]) != len(rs.pages) {
				return st, fmt.Errorf("mem: dirty-page hint for region %q has %d pages, snapshot has %d",
					rs.name, len(hint.pages[ri]), len(rs.pages))
			}
			marks = hint.pages[ri]
		}
		for p, page := range rs.pages {
			live := r.words[p*SnapPageWords : p*SnapPageWords+len(page)]
			if marks != nil && marks[p] {
				copy(live, page)
				st.Copied++
				continue
			}
			if pageEqual(live, page) {
				st.Clean++
				continue
			}
			copy(live, page)
			st.Copied++
			if marks != nil {
				marks[p] = true
			}
		}
		r.dirty = false
	}
	return st, nil
}
