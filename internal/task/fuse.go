package task

import (
	"repro/internal/mcu"
	"repro/internal/mem"
)

// Fused tasks: the charge-then-compute fast path (mcu/fuse.go) for runs of
// whole tasks.
//
// A task is one atomic commit region — prologue, body, two-phase commit
// ending in Progress — which is exactly the unit mcu.ChargeTrain funds.
// A task whose body would take the bulk path in every chunk (every
// task-shared read and write a fresh ReadRange/WriteRange/AccumulateRow,
// so its redo log is a plain append of distinct words) charges an op
// multiset that is a pure function of its indices. When the device may
// fuse, Run hands consecutive dispatches of such a task to its FuseFunc:
// a planning walk records each dispatch's op multiset (its body's, plus
// the runtime's prologue, redo-log and commit ops), consecutive equal
// multisets become one train segment, ChargeTrain funds a prefix of whole
// tasks, and an applying walk performs exactly the funded tasks' effects
// over raw words — home words, redo-log words (dead entries beyond the
// last task's count included) and control state, as the per-op path
// leaves them. The first unfunded task runs on the per-op path and browns
// out at the identical op index.
//
// A task body's bulk chunks are written once, against Fuse: the per-op
// path runs the same chunk code through Ctx.Bulk, whose per-op mode
// forwards every call to the device and to the Ctx's range forms. A chunk
// checks its gates (Fresh, or a Read that charges nothing when it
// declines) before its first charge, so a declined chunk charges nothing
// and the per-op body falls back to its scalar form; a planned dispatch
// with a declined chunk — below the bulk threshold, or re-writing a word
// the task already privatized — or a task with no fused form runs per op.
// Whether a run fuses is decided per run, from the device as it is then.

// FuseFunc is the fused form of a task that dispatches itself repeatedly
// (a tile pass). A planning walk calls it for consecutive dispatches
// j = 0, 1, ... of the task from the current nonvolatile state; it returns
// the dispatch's transition target and whether the dispatch takes the
// bulk path throughout, recording the dispatch's charged ops — f.Section,
// f.Ops, f.Load, f.Read, f.Write, f.Accumulate in place of the Device and
// Ctx calls its body makes. The applying walk that follows calls it again
// for a prefix of those dispatches, in order (f.Planning() false), to
// perform their data movement, every task-shared write through f.Write or
// f.Accumulate, which cannot fail then. A plan may depend only on state
// that commits change: a dispatch that the per-op path attempts and
// abandons in a brown-out before its commit keeps its plan.
type FuseFunc func(f *Fuse, j int) (next ID, ok bool)

// SetFused attaches fz as task id's fused form. layer is the section layer
// the task's body is attributed to, whose transition section carries the
// commit ops.
func (rt *Runtime) SetFused(id ID, layer string, fz FuseFunc) {
	e := &rt.tasks[id]
	e.fused, e.tokT = fz, rt.dev.SectionToken(layer, mcu.PhaseTransition)
}

// maxFuseBatch bounds how many dispatches one ChargeTrain call covers.
// Below it, a batch is sized by how many copies of its first dispatch the
// energy buffer can pay for (Device.Fundable), so a small capacitor that
// funds a few tasks per charge cycle plans few tasks it cannot fund.
const maxFuseBatch = 64

// fuseSlots bounds the distinct sections one fused task charges: its
// layer's transition section (slot 0) and the body's sections.
const fuseSlots = 4

// profile is one dispatch's charged op multiset by section slot.
type profile struct {
	toks  [fuseSlots]mcu.SectionTok
	nToks int
	cnt   [fuseSlots][mcu.NumOps]int32
}

// span is one word range a planned dispatch writes.
type span struct {
	r      *mem.Region
	lo, hi int
}

// Fuse executes bulk chunks in one of three modes: per op, forwarding to
// the device and the Ctx (Ctx.Bulk), and the fused-task executor's
// planning and applying walks. As the executor it holds the walks' state
// and the train being funded; the blocks it funds are interned by the
// device (mcu.Device.NewBlock). Each Runtime keeps one, across runs.
type Fuse struct {
	rt   *Runtime
	dev  *mcu.Device // rt.dev
	mode uint8
	cnt  *[mcu.NumOps]int32 // the current section slot's counts in prof

	// Planning state of the current dispatch.
	prof    profile
	entries int    // redo-log entries appended
	spans   []span // word ranges written

	// The last planned multiset with its prologue in its commit section,
	// its block, and the op list blocks are built from.
	prev profile
	blk  *mcu.Block
	ops  []mcu.BlockOp

	segs []mcu.TrainSeg
	next []ID  // planned dispatches' transition targets
	ents []int // and their redo-log entry counts

	// Backing arrays for the Fuse's slices, so its batches allocate
	// nothing.
	segsBuf [maxFuseBatch]mcu.TrainSeg
	nextBuf [maxFuseBatch]ID
	entsBuf [maxFuseBatch]int
	spanBuf [8]span
	opsBuf  [32]mcu.BlockOp

	// pend is the plan of the dispatch a train could not fund, which the
	// per-op path attempts next and browns out on. Until a commit moves
	// the state on, the next run re-uses it instead of planning the same
	// dispatch again.
	pend     profile
	pendEnts int
	pendNext ID
	pendTask ID
	hasPend  bool

	// Applying state: raw log words, control-state words, the current
	// dispatch's log count, and how many leading log entries a later
	// funded dispatch of the train overwrites (so they need no write).
	log, state []int64
	n, skip    int
}

// Fuse modes.
const (
	modePerOp = iota // forward to the device and the Ctx
	modePlan         // record charges
	modeApply        // perform a funded dispatch's effects over raw words
)

// forget drops the pending plan once a commit has moved the state on.
func (f *Fuse) forget() { f.hasPend = false }

// init binds f to rt.
func (f *Fuse) init(rt *Runtime) {
	f.rt, f.dev = rt, rt.dev
	f.segs, f.next, f.ents = f.segsBuf[:0], f.nextBuf[:0], f.entsBuf[:0]
	f.spans, f.ops = f.spanBuf[:0], f.opsBuf[:0]
}

// Planning reports whether the current walk records charges (true) or
// performs them: applying a funded dispatch, or running per op.
func (f *Fuse) Planning() bool { return f.mode == modePlan }

// Section attributes the following recorded ops to t, as
// Device.SetSectionTok does for the per-op path; it records nothing
// outside a plan (chunk bodies do not change sections).
func (f *Fuse) Section(t mcu.SectionTok) {
	if f.mode != modePlan {
		return
	}
	p := &f.prof
	for i := 0; i < p.nToks; i++ {
		if p.toks[i] == t {
			f.cnt = &p.cnt[i]
			return
		}
	}
	if p.nToks == fuseSlots {
		panic("task: fused task charges too many sections")
	}
	p.toks[p.nToks] = t
	f.cnt = &p.cnt[p.nToks]
	p.nToks++
}

// Ops is Device.Ops(k, n). It stays small enough to inline into chunk
// bodies, which call it several times per chunk on the planning walk.
func (f *Fuse) Ops(k mcu.OpKind, n int) {
	if f.mode == modePlan {
		f.cnt[k] += int32(n)
	} else if f.mode == modePerOp {
		f.dev.Ops(k, n)
	}
}

// Load is Device.LoadRange(r, i, n): loads of words the task reads
// without privatization.
func (f *Fuse) Load(r *mem.Region, i, n int) {
	if f.mode == modePlan {
		f.cnt[mcu.LoadOp(r)] += int32(n)
	} else if f.mode == modePerOp {
		f.dev.LoadRange(r, i, n)
	}
}

// add records n ops of kind k in section slot s.
func (f *Fuse) add(s int, k mcu.OpKind, n int) { f.prof.cnt[s][k] += int32(n) }

// fresh reports whether no word of r[i:i+n] was written earlier in the
// planned dispatch — Ctx.Fresh over the dispatch's write set, which holds
// exactly its earlier bulk writes.
func (f *Fuse) fresh(r *mem.Region, i, n int) bool {
	for _, s := range f.spans {
		if s.r == r && i < s.hi && s.lo < i+n {
			return false
		}
	}
	return true
}

// Fresh is Ctx.Fresh(r, i, n): a chunk's gate, free of charge. Applying,
// every word is fresh: the plan vouched for it.
func (f *Fuse) Fresh(r *mem.Region, i, n int) bool {
	switch f.mode {
	case modePlan:
		return f.fresh(r, i, n)
	case modePerOp:
		return f.rt.ctx.Fresh(r, i, n)
	}
	return true
}

// Read is Ctx.ReadRange(r, i, n) (n == 1 also stands for Ctx.Read of an
// unprivatized word) and reports whether it takes the bulk path; per op,
// it charges nothing when it does not.
func (f *Fuse) Read(r *mem.Region, i, n int) bool {
	switch f.mode {
	case modePerOp:
		return f.rt.ctx.ReadRange(r, i, n)
	case modeApply:
		return true
	}
	f.Ops(mcu.OpPrivatize, n)
	f.Ops(mcu.LoadOp(r), n)
	return f.fresh(r, i, n)
}

// Write is Ctx.WriteRange(r, i, vals) (one value also stands for a
// Ctx.Write appending a fresh entry): while planning it records the
// charges and reports whether the bulk path applies; applying, it appends
// the log entries and, as the commit's replay will, writes the home words.
// Writing home words ahead of the commit is exact because a bulk dispatch
// never reads a word it wrote.
func (f *Fuse) Write(r *mem.Region, i int, vals []int64) bool {
	rt, n := f.rt, len(vals)
	switch f.mode {
	case modePerOp:
		return rt.ctx.WriteRange(r, i, vals)
	case modePlan:
		f.Ops(mcu.OpPrivatize, n)
		f.Ops(mcu.OpLoadFRAM, n)
		f.Ops(mcu.StoreOp(rt.log), 2*n)
		f.Ops(mcu.OpStoreFRAM, n)
		f.add(0, mcu.StoreOp(r), n) // the commit's home stores
		f.entries += n
		ok := f.fresh(r, i, n)
		f.spans = append(f.spans, span{r, i, i + n})
		return ok
	}
	if j0 := max(f.skip-f.n, 0); j0 < n {
		id := rt.regionID(r)
		lw := f.log[2*f.n : 2*(f.n+n)]
		for j := j0; j < n; j++ {
			lw[2*j] = rt.pack(id, i+j)
			lw[2*j+1] = vals[j]
		}
	}
	f.n += n
	copy(r.Words()[i:], vals)
	return true
}

// Accumulate is Ctx.AccumulateRow(r, i, k, final): k read-modify-write
// pairs on r[i] leaving one log entry holding final.
func (f *Fuse) Accumulate(r *mem.Region, i, k int, final int64) bool {
	rt := f.rt
	switch f.mode {
	case modePerOp:
		return rt.ctx.AccumulateRow(r, i, k, final)
	case modePlan:
		f.Ops(mcu.OpPrivatize, 2*k)
		f.Ops(mcu.LoadOp(r), 1)
		f.Ops(mcu.OpLoadFRAM, 1)
		f.Ops(mcu.StoreOp(rt.log), 2)
		f.Ops(mcu.OpStoreFRAM, 1)
		f.Ops(mcu.OpLoadFRAM, k-1)
		f.Ops(mcu.OpStoreFRAM, k-1)
		f.add(0, mcu.StoreOp(r), 1)
		f.entries++
		ok := f.fresh(r, i, 1)
		f.spans = append(f.spans, span{r, i, i + 1})
		return ok
	}
	if f.n >= f.skip {
		f.log[2*f.n] = rt.pack(rt.regionID(r), i)
		f.log[2*f.n+1] = final
	}
	f.n++
	r.Words()[i] = final
	return true
}

// beginPlan resets the planning state for one dispatch whose commit
// attributes to tokT (slot 0).
func (f *Fuse) beginPlan(tokT mcu.SectionTok) {
	f.prof = profile{}
	f.Section(tokT)
	f.entries = 0
	f.spans = f.spans[:0]
}

// endPlan charges the planned dispatch's commit — staging the target and
// the phase, the log-count load, the log replay's loads (the home stores
// were recorded by Write/Accumulate), the task-id copy, the count reset,
// the dispatch, and the phase reset.
func (f *Fuse) endPlan() {
	st, lg := f.rt.state, f.rt.log
	f.add(0, mcu.StoreOp(st), 2)
	f.add(0, mcu.LoadOp(st), 1)
	f.add(0, mcu.LoadOp(lg), 2*f.entries)
	f.add(0, mcu.LoadOp(st), 1)
	f.add(0, mcu.StoreOp(st), 2)
	f.add(0, mcu.OpDispatch, 1)
	f.add(0, mcu.StoreOp(st), 1)
}

// block returns the charge profile of the planned dispatch with its
// prologue — the task-id load and the log-count reset — charged to tokP,
// the section active at its dispatch. Consecutive dispatches mostly share
// one multiset with the prologue in their commit section, so the last
// such block is kept at hand.
func (f *Fuse) block(tokP mcu.SectionTok) *mcu.Block {
	if tokP != f.prof.toks[0] {
		return f.build(tokP)
	}
	if f.blk == nil || f.prof != f.prev {
		f.prev, f.blk = f.prof, f.build(tokP)
	}
	return f.blk
}

// build returns the device's block for the planned multiset with its
// prologue in tokP. Slot 0's ops come last: the commit's section is the
// one the per-op path leaves active at Progress.
func (f *Fuse) build(tokP mcu.SectionTok) *mcu.Block {
	p, st := &f.prof, f.rt.state
	f.ops = append(f.ops[:0], mcu.BlockOp{Tok: tokP, Kind: mcu.LoadOp(st), N: 1},
		mcu.BlockOp{Tok: tokP, Kind: mcu.StoreOp(st), N: 1})
	for i := 1; i <= p.nToks; i++ {
		s := i % p.nToks
		for k, n := range p.cnt[s] {
			if n != 0 {
				f.ops = append(f.ops, mcu.BlockOp{Tok: p.toks[s], Kind: mcu.OpKind(k), N: int(n)})
			}
		}
	}
	return f.rt.dev.NewBlock(f.ops...)
}

// run funds and applies consecutive dispatches of task cur, starting at the
// current nonvolatile state. It stops at the first dispatch that cannot
// fuse or cannot be funded, which the caller then runs per op, or after a
// dispatch that transitions away, reporting true so the caller tries to
// fuse the next task.
func (f *Fuse) run(cur ID) bool {
	rt, dev := f.rt, f.rt.dev
	fused, tokT := rt.tasks[cur].fused, rt.tasks[cur].tokT
	// The first dispatch's prologue is charged to the section left active
	// before it — usually the previous task's commit section, but another
	// layer's, or the one a brown-out interrupted, in the first task of a
	// pass or of an attempt; every later one's to the previous dispatch's
	// commit section.
	tokP := tokT
	if !dev.InSection(tokT) {
		tokP = dev.SectionToken(dev.Section())
	}
	for {
		f.mode = modePlan
		f.segs, f.next, f.ents = f.segs[:0], f.next[:0], f.ents[:0]
		stop := false
		for j, limit := 0, 1; j < limit; j++ {
			var next ID
			if j == 0 && f.hasPend && f.pendTask == cur {
				f.prof, f.entries, next, f.hasPend = f.pend, f.pendEnts, f.pendNext, false
			} else {
				f.beginPlan(tokT)
				var ok bool
				if next, ok = fused(f, j); !ok || f.entries > rt.cap {
					stop = true
					break
				}
				f.endPlan()
			}
			blk := f.block(tokP)
			tokP = tokT
			if j == 0 {
				if limit = dev.Fundable(blk, maxFuseBatch); limit == 0 {
					f.pend, f.pendEnts, f.pendNext, f.pendTask, f.hasPend = f.prof, f.entries, next, cur, true
					return false
				}
			}
			if n := len(f.segs); n > 0 && f.segs[n-1].Blk == blk {
				f.segs[n-1].N++
			} else {
				f.segs = append(f.segs, mcu.TrainSeg{Blk: blk, N: 1})
			}
			f.next = append(f.next, next)
			f.ents = append(f.ents, f.entries)
			if next != cur {
				stop = true
				break
			}
		}
		if len(f.next) == 0 {
			return false
		}
		// Fundable already vouched for the first dispatch, so m >= 1.
		m := dev.ChargeTrain(f.segs)
		f.mode = modeApply
		f.log, f.state = rt.log.Words(), rt.state.Words()
		// The final log holds, at each entry index, the last funded
		// dispatch's entry there: ents[j] becomes how many leading entries
		// the dispatches after j rewrite, which j need not write.
		later := 0
		for j := m - 1; j >= 0; j-- {
			f.ents[j], later = later, max(later, f.ents[j])
		}
		for j := 0; j < m; j++ {
			f.n, f.skip = 0, f.ents[j]
			fused(f, j)
			next := int64(f.next[j])
			f.state[stPhase], f.state[stCur], f.state[stNext], f.state[stCount] = phaseExec, next, next, 0
		}
		if m < len(f.next) {
			return false
		}
		if stop {
			return f.next[m-1] != cur
		}
	}
}
