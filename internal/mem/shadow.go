package mem

// Shadow is an opt-in memory-consistency tracker for nonvolatile regions.
// It watches every word access between two durable commit points and flags
// write-after-read (WAR) violations — the exact bug class loop continuation
// must avoid (paper §4): if a charge cycle reads a nonvolatile word and
// later overwrites it, re-executing that cycle after a brown-out reads the
// *new* value where the original run read the old one, silently corrupting
// the result. A write is safe when it dominates the reads of its word
// (write-before-read is idempotent under replay), when the word's original
// value was durably undo-logged first (SONIC's sparse updates), or when the
// region implements its own crash-consistency protocol and is exempted
// (commit cursors, redo logs, checkpoint areas).
//
// Per word the tracker keeps a three-state machine, reset at every commit
// and every power failure:
//
//	untouched --read--> readFirst --write--> VIOLATION (unless logged/exempt)
//	untouched --write-> written   (all later accesses safe)
//
// Only FRAM regions are tracked; SRAM is cleared on reboot, so volatile
// WAR hazards cannot leak state across a power failure.
type Shadow struct {
	regs    []shadowReg       // every region looked up or exempted, first seen first
	index   map[*Region]int32 // position in regs
	touched []touchedWord
}

// shadowReg is one region's tracking entry. st holds its per-word states
// and is nil while the region is untracked: exempt, or not FRAM.
type shadowReg struct {
	r  *Region
	st []uint8
}

// touchedWord is a word accessed since the last commit: word i of regs[reg].
type touchedWord struct {
	reg int32
	i   int32
}

// Per-word shadow states. wordLogged is a flag bit layered over the state:
// a logged word may be rewritten freely until the next commit because its
// pre-state is recoverable.
const (
	wordUntouched uint8 = 0
	wordReadFirst uint8 = 1
	wordWritten   uint8 = 2
	wordLogged    uint8 = 4
)

// NewShadow returns an empty tracker.
func NewShadow() *Shadow {
	return &Shadow{index: make(map[*Region]int32)}
}

// entry returns r's position in regs, adding an entry on first sight.
// The region caches its position for the shadow that looked it up last,
// so steady-state accesses cost a pointer compare instead of a map lookup.
func (s *Shadow) entry(r *Region) int32 {
	if r.shadow == s {
		return r.shadowIdx
	}
	ri, ok := s.index[r]
	if !ok {
		ri = int32(len(s.regs))
		e := shadowReg{r: r}
		if r.Kind() == FRAM {
			e.st = make([]uint8, r.Len())
		}
		s.regs = append(s.regs, e)
		s.index[r] = ri
	}
	r.shadow, r.shadowIdx = s, ri
	return ri
}

// Exempt excludes a region from WAR checking. Use it for regions that carry
// their own crash-consistency protocol (commit indices, undo/redo logs,
// checkpoint slots): their write-after-read patterns are the mechanism that
// makes everything else safe, not a hazard.
func (s *Shadow) Exempt(r *Region) {
	if ri, ok := s.index[r]; ok {
		s.regs[ri].st = nil
		return
	}
	s.index[r] = int32(len(s.regs))
	s.regs = append(s.regs, shadowReg{r: r})
}

// NoteLogged records that the word's current value has been durably saved
// (undo-logged) in this commit region, sanctioning later overwrites until
// the next commit or abort.
func (s *Shadow) NoteLogged(r *Region, i int) {
	ri := s.entry(r)
	st := s.regs[ri].st
	if st == nil {
		return
	}
	if st[i] == wordUntouched {
		s.touched = append(s.touched, touchedWord{ri, int32(i)})
	}
	st[i] |= wordLogged
}

// OnRead records a word read.
func (s *Shadow) OnRead(r *Region, i int) {
	ri := s.entry(r)
	st := s.regs[ri].st
	if st == nil {
		return
	}
	if st[i] == wordUntouched {
		st[i] = wordReadFirst
		s.touched = append(s.touched, touchedWord{ri, int32(i)})
	}
}

// OnWrite records a word write and reports whether it is a WAR violation:
// the word's first access in this commit region was a read, and its
// pre-state was never logged.
func (s *Shadow) OnWrite(r *Region, i int) bool {
	ri := s.entry(r)
	st := s.regs[ri].st
	if st == nil {
		return false
	}
	switch st[i] {
	case wordUntouched:
		st[i] = wordWritten
		s.touched = append(s.touched, touchedWord{ri, int32(i)})
		return false
	case wordReadFirst:
		st[i] = wordWritten // report each hazardous word once per region
		return true
	default:
		return false
	}
}

// Commit marks a durable progress point: replay can no longer revisit the
// accesses seen so far, so all word states reset.
func (s *Shadow) Commit() { s.clear() }

// Abort marks a power failure before commit. The in-flight region will be
// replayed from its last commit, so word states reset the same way. (Any
// violation it contained was already reported by OnWrite.)
func (s *Shadow) Abort() { s.clear() }

// Reset readies the tracker for a new run on the same device: the
// in-flight word states clear as at a commit, and every region since
// released from its bank is forgotten, along with its exemption, so a
// pooled device that allocates and frees per-run regions (redo logs,
// task state) does not accumulate them run after run.
func (s *Shadow) Reset() {
	s.clear()
	kept := s.regs[:0]
	for _, e := range s.regs {
		if e.r.Released() {
			delete(s.index, e.r)
			if e.r.shadow == s {
				e.r.shadow = nil
			}
			continue
		}
		ri := int32(len(kept))
		s.index[e.r] = ri
		if e.r.shadow == s {
			e.r.shadowIdx = ri
		}
		kept = append(kept, e)
	}
	clear(s.regs[len(kept):])
	s.regs = kept
}

func (s *Shadow) clear() {
	for _, t := range s.touched {
		if st := s.regs[t.reg].st; st != nil {
			st[t.i] = wordUntouched
		}
	}
	s.touched = s.touched[:0]
}
