package mcu

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
)

// DefaultSnapStride is the op stride between snapshots in a recording when
// the caller does not choose one. Each fork then replays at most this many
// tape entries to rebuild its prefix stats, while the page-shared FRAM
// snapshots keep the train's memory near one live image.
const DefaultSnapStride = 2048

// Journal records one golden (failure-free) run so that any brown-out
// placement can later be forked instead of re-simulated: a snapshot train
// of the machine state at stride intervals, plus op-exact logs of
// everything that happens between snapshots — the op-kind tape, every
// nonvolatile write with its funded op position, section and commit
// events, and WAR violations. The recording run must never brown out
// (use Continuous power).
//
// After the run, RestorePrefix reconstructs onto an identically deployed
// device — fresh, or a pooled one rewound to its post-deploy image and
// reprovisioned — the exact state a from-scratch run would reach at its
// first brown-out on charged op b: the golden prefix of ops 1..b-1
// (deterministically identical across placements, since no power system in
// this tree feeds back into the op stream before the first failure), the
// aborted in-flight region, and the first reboot.
type Journal struct {
	d      *Device
	stride int64
	base   int64 // opsTotal when recording started; tape[i] is charged op base+i+1

	tape    []uint8     // kind of every charged op
	writes  []writeRec  // FRAM writes in op-position order
	secLog  []secRec    // section switches
	secs    []Section   // the recording device's sections by token (StopJournal)
	commits []commitRec // Progress events with the running MaxRegionOps
	start   commitRec   // the same figures and baseline when recording started
	warLog  []warRec    // WAR violations with write position and batch end
	snaps   []*prefixSnap

	regIdx map[*mem.Region]int32 // FRAM region -> index, stable during a run

	// In-flight bulk effect batch (StoreRange / DMA): the j-th Put of the
	// batch was funded by charged op batchBase+j+1, and the batch's last op
	// is batchBase+batchN — the op position every WAR record of a fully
	// funded batch carries.
	inBatch           bool
	batchBase, batchN int64
	batchK            int64
	nextSnapAt        int64
	prevFRAM          *mem.Snapshot

	// pages lists the FRAM pages the write log touched in first-touch
	// order (prefixSnap.pageCur cuts it); touched maps each to len(snaps)
	// at its latest write.
	pages   []mem.Page
	touched map[mem.Page]int
}

type writeRec struct {
	pos int64 // the charged op that funded this write (host writes: ops so far)
	reg int32
	idx int32
	val int64
}

type secRec struct {
	opIdx int64      // ops charged when the section changed
	tok   SectionTok // the recording device's token for the new section
}

// commitRec is one Progress event: its op position, the running
// MaxRegionOps and commit count, and the (cycles, pJ) mirrors there — the
// wasted-work baseline a brown-out after it measures from.
type commitRec struct {
	opIdx        int64
	maxRegionOps int64
	commits      int
	cyc, pj      int64
}

type warRec struct {
	v        WARViolation
	writePos int64 // charged op funding the violating write
	batchEnd int64 // last op of its charge batch (== writePos for scalar stores)
}

// prefixSnap is one snapshot-train entry: full machine state at a
// consistent op boundary, plus cursors into the logs so replay resumes
// exactly where the snapshot left off.
type prefixSnap struct {
	pos   int64 // ops charged at capture
	fram  *mem.Snapshot
	stats Stats      // the device's counters (no Sections)
	table []tokEntry // a copy of the section table, by recording token
	cur   SectionTok // the current section's recording token

	secCur, writeCur, pageCur int
}

// StartJournal begins recording on this device with the given snapshot
// stride (<=0 selects DefaultSnapStride). The first snapshot is taken at
// the first charged operation — after deploy- and setup-time host writes,
// so a fork at the earliest boundary sees them all.
func (d *Device) StartJournal(stride int) *Journal {
	if d.journal != nil {
		panic("mcu: journal already recording")
	}
	if stride <= 0 {
		stride = DefaultSnapStride
	}
	// Ops before this point ran on the fast path, which does not maintain
	// the incremental mirror; resync it so recorded positions are exact.
	d.opsTotal = d.opsNow()
	j := &Journal{
		d:          d,
		stride:     int64(stride),
		base:       d.opsTotal,
		start:      commitRec{d.opsTotal, d.stats.MaxRegionOps, d.stats.Commits, d.commitCyc, d.commitPJ},
		regIdx:     make(map[*mem.Region]int32),
		nextSnapAt: d.opsTotal,
		touched:    make(map[mem.Page]int),
	}
	d.journal = j
	d.FRAM.SetObserver(j)
	d.refreshSlowOp()
	return j
}

// StopJournal ends the recording; the journal keeps its data, with the
// sections the recording's tokens name, and serves RestorePrefix calls
// from any goroutine.
func (d *Device) StopJournal() {
	if d.journal == nil {
		return
	}
	for _, e := range d.toks {
		d.journal.secs = append(d.journal.secs, e.sec)
	}
	d.FRAM.SetObserver(nil)
	d.journal = nil
	d.refreshSlowOp()
}

// Snapshots reports the snapshot-train length (for tests and diagnostics).
func (j *Journal) Snapshots() int { return len(j.snaps) }

// OnPut implements mem.PutObserver: every FRAM write during the recording,
// device- or host-side, lands here with the op position that funded it.
// Host-side writes (deploy/setup/runtime bookkeeping) happen between
// charged ops and are positioned at the ops-so-far count: a fork at
// boundary b applies them exactly when the from-scratch run would have
// reached the host code that issued them.
func (j *Journal) OnPut(r *mem.Region, i int, v int64) {
	pos := j.d.opsTotal
	if j.inBatch {
		j.batchK++
		pos = j.batchBase + j.batchK
	}
	ri, ok := j.regIdx[r]
	if !ok {
		ri = int32(j.d.FRAM.IndexOf(r))
		if ri < 0 {
			panic(fmt.Sprintf("mcu: journaled Put to region %q not in FRAM", r.Name))
		}
		j.regIdx[r] = ri
	}
	j.writes = append(j.writes, writeRec{pos: pos, reg: ri, idx: int32(i), val: v})
	p := mem.Page{Region: ri, Page: int32(i / mem.SnapPageWords)}
	if _, ok := j.touched[p]; !ok {
		j.pages = append(j.pages, p)
	}
	j.touched[p] = len(j.snaps)
}

// beginBatch brackets a bulk effect loop whose writes were funded by the
// charge batch ending at the current op count.
func (j *Journal) beginBatch(n int) {
	j.inBatch = true
	j.batchBase = j.d.opsTotal - int64(n)
	j.batchN = int64(n)
	j.batchK = 0
}

func (j *Journal) endBatch() { j.inBatch = false }

// onOp records one charged scalar op, snapshotting first when the stride
// boundary has been reached (the pre-charge instant is a consistent state:
// all earlier effects applied, this op not yet counted).
func (j *Journal) onOp(k OpKind) {
	if j.d.opsTotal >= j.nextSnapAt {
		j.snap()
	}
	j.tape = append(j.tape, uint8(k))
}

// onOps records a charged bulk batch. The whole batch is accounted before
// its effects run, so the snapshot point before it is consistent.
func (j *Journal) onOps(k OpKind, n int) {
	if j.d.opsTotal >= j.nextSnapAt {
		j.snap()
	}
	for i := 0; i < n; i++ {
		j.tape = append(j.tape, uint8(k))
	}
}

// onSection records an attribution change.
func (j *Journal) onSection(t SectionTok) {
	j.secLog = append(j.secLog, secRec{opIdx: j.d.opsTotal, tok: t})
}

// onCommit records a Progress call, after the device has counted it.
func (j *Journal) onCommit() {
	d := j.d
	j.commits = append(j.commits, commitRec{d.opsTotal, d.stats.MaxRegionOps, d.stats.Commits, d.cycNow, d.pjNow})
}

// onWAR records a WAR violation with its exact write position and the end
// of its charge batch, so forks can rebuild both the violation count and
// the op field a from-scratch run would have recorded (which for bulk
// batches is the post-batch op count, truncated at the brown-out).
func (j *Journal) onWAR(v WARViolation) {
	w := warRec{v: v, writePos: j.d.opsTotal, batchEnd: j.d.opsTotal}
	if j.inBatch {
		w.writePos = j.batchBase + j.batchK + 1
		w.batchEnd = j.batchBase + j.batchN
	}
	j.warLog = append(j.warLog, w)
}

// snap captures a snapshot-train entry at the current op boundary.
func (j *Journal) snap() {
	d := j.d
	var dirtyFn func(region, page int) bool
	if j.prevFRAM != nil {
		stride := len(j.snaps)
		dirtyFn = func(region, page int) bool {
			n, ok := j.touched[mem.Page{Region: int32(region), Page: int32(page)}]
			return ok && n == stride
		}
	}
	fs := d.FRAM.Snapshot(j.prevFRAM, dirtyFn)
	j.snaps = append(j.snaps, &prefixSnap{
		pos:      d.opsTotal,
		fram:     fs,
		stats:    d.stats,
		table:    slices.Clone(d.toks),
		cur:      d.cur,
		secCur:   len(j.secLog),
		writeCur: len(j.writes),
		pageCur:  len(j.pages),
	})
	j.prevFRAM = fs
	j.nextSnapAt = d.opsTotal + j.stride
}

// MaxOp returns the last charged op position the recording covers.
func (j *Journal) MaxOp() int64 { return j.base + int64(len(j.tape)) }

// LastFRAMWriteAtOrBefore returns the position of the last journaled FRAM
// write at or before op bound, or 0 when there is none. Two brown-out
// boundaries whose prefixes end at the same write position leave identical
// FRAM images, so their forked suffixes are op-for-op identical — the
// equivalence the sweep's dedup layer keys on.
func (j *Journal) LastFRAMWriteAtOrBefore(bound int64) int64 {
	i := sort.Search(len(j.writes), func(i int) bool { return j.writes[i].pos > bound })
	if i == 0 {
		return 0
	}
	return j.writes[i-1].pos
}

// WARCount returns the number of WAR violations a from-scratch run
// reaching its first brown-out on charged op b would have counted: those
// whose write was funded within the prefix, ops 1..b-1. The log is in
// write-position order, so this is a binary search, copying nothing.
func (j *Journal) WARCount(b int64) int {
	return sort.Search(len(j.warLog), func(i int) bool { return j.warLog[i].writePos > b-1 })
}

// WARPrefix reconstructs the WAR verdict a from-scratch run reaching its
// first brown-out on charged op b would carry: the total violation count
// over the funded prefix (WARCount), and the retained records (capped at
// WARMaxKeep) with the op field such a run would have recorded —
// min(batch end, b-1), because a brown-out inside a bulk batch truncates
// its accounting at the failing op.
func (j *Journal) WARPrefix(b int64) (count int, kept []WARViolation) {
	pre := b - 1
	count = j.WARCount(b)
	if count == 0 {
		return 0, nil
	}
	kept = make([]WARViolation, min(count, warMaxKeep))
	for i := range kept {
		w := &j.warLog[i]
		kept[i] = w.v
		kept[i].Op = min(w.batchEnd, pre)
	}
	return count, kept
}

// RestorePrefix reconstructs onto fork the exact state of a from-scratch
// run at its first brown-out on charged op b: golden prefix ops 1..b-1
// applied, the in-flight region aborted (SRAM cleared, shadow empty), and
// the first reboot taken (fork.Power.Recharge() is called once, so the
// caller installs the power system in its pre-first-reboot state). The
// fork must be deployed identically to the recording device, so its FRAM
// region layout matches the recording's, and must carry no state of an
// earlier run: freshly constructed, or a pooled device rewound to its
// post-deploy image and reprovisioned (core.Slot.Provision), its resident
// runtime regions reset as a fresh prepare leaves them. Its FRAM then
// differs from snapshot s only in the pages the write log touched up to
// s, so only those are copied (their regions marked dirty for the slot's
// next rewind). The section table is rebuilt by index from s's copy and
// the op tape, through journalToks, and its section entered silently.
func (j *Journal) RestorePrefix(fork *Device, b int64) error {
	pre := b - 1
	if len(j.secs) == 0 { // StopJournal fills it, with boot at least
		return fmt.Errorf("mcu: journal still recording")
	}
	if pre < j.base || b > j.MaxOp() {
		return fmt.Errorf("mcu: boundary %d outside recorded range (%d, %d]", b, j.base, j.MaxOp())
	}
	si := sort.Search(len(j.snaps), func(i int) bool { return j.snaps[i].pos > pre }) - 1
	if si < 0 {
		return fmt.Errorf("mcu: no snapshot at or before op %d", pre)
	}
	s := j.snaps[si]

	// Nonvolatile memory: the snapshot's written pages, plus the journaled
	// writes funded by ops in (s.pos, b-1]. The write log is
	// position-sorted, and every write at or before s.pos is already
	// inside the snapshot image.
	if err := s.fram.RestorePages(fork.FRAM, j.pages[:s.pageCur]); err != nil {
		return err
	}
	for wi := s.writeCur; wi < len(j.writes); wi++ {
		w := j.writes[wi]
		if w.pos > pre {
			break
		}
		fork.FRAM.RegionAt(int(w.reg)).Put(int(w.idx), w.val)
	}

	// Stats: the snapshot's table, then the op tape replayed from the
	// snapshot, attributing each op to the section current at its charge
	// (section events at opIdx p take effect before op p+1), entering
	// sections even with zero ops, as SetSection does live.
	xl := fork.journalToks(j)
	fork.clearTable()
	for id := range s.table {
		if e := &s.table[id]; e.entered {
			f := &fork.toks[xl[id]]
			f.entered, f.stats = true, e.stats
		}
	}
	cur := xl[s.cur]
	ss := &fork.toks[cur].stats
	// Each pass takes the section changes made after op pos, then counts
	// the ops up to the next change or the prefix's end.
	for pos, ei := s.pos, s.secCur; ; {
		for ; ei < len(j.secLog) && j.secLog[ei].opIdx <= pos; ei++ {
			cur = xl[j.secLog[ei].tok]
			fork.toks[cur].entered = true
			ss = &fork.toks[cur].stats
		}
		if pos == pre {
			break
		}
		next := pre
		if ei < len(j.secLog) {
			next = min(next, j.secLog[ei].opIdx)
		}
		for _, k := range j.tape[pos-j.base : next-j.base] {
			ss.OpCount[k]++
		}
		pos = next
	}
	// MaxRegionOps, the commit count and the wasted-work baseline move
	// only at commits: take the last one in the prefix.
	last := j.start
	if ci := sort.Search(len(j.commits), func(i int) bool { return j.commits[i].opIdx > pre }); ci > 0 {
		last = j.commits[ci-1]
	}
	fork.stats = s.stats
	fork.stats.MaxRegionOps, fork.stats.Commits = last.maxRegionOps, last.commits
	fork.enter(cur)
	fork.cycNow, fork.pjNow = 0, 0
	for k, n := range fork.opTotals() {
		fork.cycNow += n * fork.costCyc[k]
		fork.pjNow += n * fork.costPJ[k]
	}

	// WAR verdicts: every violation funded within the prefix.
	fork.warCount, fork.warViolations = j.WARPrefix(b)

	// The brown-out and first reboot: the cycle's work since its last
	// commit is wasted, the in-flight region aborts (the fork's shadow is
	// already empty), SRAM clears, power recharges, and the next cycle's
	// baseline starts here.
	fork.commitCyc, fork.commitPJ = last.cyc, last.pj
	fork.wasteCycle()
	fork.SRAM.ClearVolatile()
	fork.opsTotal = pre
	fork.opsInRegion = 0
	fork.batchOps = 0
	fork.stats.Reboots = 1
	fork.stats.DeadSeconds += fork.Power.Recharge()
	fork.rebootsSinceProgress = 1
	fork.markCommit()
	return nil
}

// journalToks returns d's token for each of j's recording tokens,
// registering the sections d lacks. Tokens never change on either
// device, so the translation is cached for the journal d last used.
func (d *Device) journalToks(j *Journal) []SectionTok {
	if d.xlatJ != j {
		d.xlatJ, d.xlat = j, d.xlat[:0]
	}
	for len(d.xlat) < len(j.secs) {
		sec := j.secs[len(d.xlat)]
		d.xlat = append(d.xlat, d.SectionToken(sec.Layer, sec.Phase))
	}
	return d.xlat
}
