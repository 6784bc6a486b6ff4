package mcu

import "repro/internal/mem"

// WARViolation is one detected write-after-read hazard: a nonvolatile word
// whose first access in a commit region was a read and which was later
// overwritten without undo-logging. Replaying that region after a brown-out
// would read the overwritten value and silently diverge from the original
// execution — the §4 bug class loop continuation exists to prevent.
type WARViolation struct {
	Region string // FRAM region name
	Index  int    // word index within the region
	Layer  string // section layer at the violating store
	Phase  Phase  // section phase at the violating store
	Op     int64  // total charged ops when the store executed (failure placement)
}

// WARMaxKeep bounds the retained violation records; WARCount keeps the true
// total so a flood of violations stays visible without unbounded memory.
// Exported so the fork-based campaign can rebuild capped record lists
// identical to a from-scratch run's.
const WARMaxKeep = 64

const warMaxKeep = WARMaxKeep

// EnableWARCheck switches on the memory-consistency shadow tracker. Every
// subsequent FRAM access through Load/Store/StoreIndex/DMA is checked for
// write-after-read hazards between durable commit points (Progress calls
// and power failures both reset the tracking window). Regions previously
// marked as protocol regions are exempted. The check is opt-in because the
// shadow adds per-access bookkeeping the measurement paths should not pay.
func (d *Device) EnableWARCheck() {
	d.shadow = mem.NewShadow()
	d.warViolations = nil
	d.warCount = 0
	for _, r := range d.protocol {
		d.shadow.Exempt(r)
	}
	// Violation records carry op positions; resync the incremental mirror
	// (ops so far ran on the fast path, which does not maintain it).
	d.opsTotal = d.opsNow()
	d.refreshSlowOp()
}

// WARViolations returns the retained violation records (at most warMaxKeep;
// see WARCount for the full total).
func (d *Device) WARViolations() []WARViolation { return d.warViolations }

// WARCount returns the total number of violations detected, including any
// beyond the retention bound.
func (d *Device) WARCount() int { return d.warCount }

// MarkProtocol declares regions that implement their own crash-consistency
// protocol — commit cursors, undo/redo logs, checkpoint slots. Their
// write-after-read traffic is the mechanism that keeps everything else
// consistent, so the WAR checker must not flag it. Safe to call whether or
// not checking is enabled, and allocation sites call it unconditionally.
func (d *Device) MarkProtocol(regions ...*mem.Region) {
	d.protocol = append(d.protocol, regions...)
	if d.shadow != nil {
		for _, r := range regions {
			d.shadow.Exempt(r)
		}
	}
}

// MarkLogged records that region word i's pre-state has been durably saved
// this commit region (undo-logged), so overwriting it is recoverable and
// must not be flagged. SONIC's sparse kernel calls this after persisting
// its read cursor and canonical value.
func (d *Device) MarkLogged(r *mem.Region, i int) {
	if d.shadow != nil {
		d.shadow.NoteLogged(r, i)
	}
}

// MarkLoggedRange is MarkLogged over words r[i:i+n] — one call for a
// redo-log replay run instead of one per word.
func (d *Device) MarkLoggedRange(r *mem.Region, i, n int) {
	if d.shadow == nil {
		return
	}
	for j := 0; j < n; j++ {
		d.shadow.NoteLogged(r, i+j)
	}
}

// shadowRead forwards a completed word read to the shadow tracker.
func (d *Device) shadowRead(r *mem.Region, i int) {
	d.shadow.OnRead(r, i)
}

// shadowWrite forwards a completed word write to the shadow tracker and
// records a violation when the tracker flags one.
func (d *Device) shadowWrite(r *mem.Region, i int) {
	if !d.shadow.OnWrite(r, i) {
		return
	}
	d.warCount++
	keep := len(d.warViolations) < warMaxKeep
	if !keep && d.journal == nil {
		return
	}
	v := WARViolation{
		Region: r.Name,
		Index:  i,
		Layer:  d.section.Layer,
		Phase:  d.section.Phase,
		Op:     d.opsTotal,
	}
	if keep {
		d.warViolations = append(d.warViolations, v)
	}
	if j := d.journal; j != nil {
		j.onWAR(v)
	}
}
