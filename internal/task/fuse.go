package task

import (
	"sync"

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
// multiset that is a pure function of its dispatch index, so a Plan —
// per dispatch of every fused task, whether it fuses, its redo-log entry
// count, its transition target and its op multiset by section slot — is
// compiled once per task graph, for a tile runtime once per (model, tile
// size), by the first run that may fuse. When the device may fuse, Run
// hands the dispatch at a fused task's cursor to Fuse.run: it looks up
// the following dispatches' entries, maps their multisets to the device's
// tokens and interned blocks (once per multiset and runtime), ChargeTrain
// funds a prefix of whole tasks, and an applying walk performs exactly the
// funded tasks' effects over raw words — home words, redo-log words (dead
// entries beyond the last task's count included) and control state, as
// the per-op path leaves them. The first unfunded task runs on the per-op
// path and browns out at the identical op index.
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
// (a tile pass); d is the dispatch's index in the pass. The planning walk
// that compiles a Plan calls it for every dispatch d = 0, 1, ... in turn;
// it returns the dispatch's transition target, whether or not it fuses,
// and whether the dispatch takes the bulk path throughout, recording the
// dispatch's charged ops — f.Section, f.Ops, f.Load, f.Read, f.Write,
// f.Accumulate in place of the Device and Ctx calls its body makes. A
// plan may depend only on d, never on the device's state. The applying
// walk calls it again for each funded dispatch, in order (f.Planning()
// false), to perform its data movement, every task-shared write through
// f.Write or f.Accumulate, which cannot fail then.
type FuseFunc func(f *Fuse, d int) (next ID, ok bool)

// SetFused attaches fz as task id's fused form. The task is a pass over a
// cursor: its dispatch d starts with word at of cur holding d*per. layer
// is the section layer the task's body is attributed to; its transition
// section carries the commit ops, and with its control and kernel
// sections makes the three slots a plan's multisets are counted in.
func (rt *Runtime) SetFused(id ID, layer string, cur *mem.Region, at, per int, fz FuseFunc) {
	e := &rt.tasks[id]
	e.fused, e.cur, e.at, e.per = fz, cur, at, per
	for s, ph := range [fuseSlots]mcu.Phase{mcu.PhaseTransition, mcu.PhaseControl, mcu.PhaseKernel} {
		e.toks[s] = rt.dev.SectionToken(layer, ph)
	}
}

// maxFuseBatch bounds how many dispatches one ChargeTrain call covers.
// Below it, a batch is sized by how many copies of its first dispatch the
// energy buffer can pay for (Device.Fundable), so a small capacitor that
// funds a few tasks per charge cycle looks up few tasks it cannot fund.
const maxFuseBatch = 64

// fuseSlots is the number of section slots a fused task charges: its
// layer's transition (slot 0, the commit's), control and kernel sections.
const fuseSlots = 3

// profile is one dispatch's charged op multiset by section slot.
type profile [fuseSlots][mcu.NumOps]int32

// dispatch is one planned dispatch: its transition target, redo-log entry
// count, and multiset's index in Plan.profs (-1: it does not fuse).
type dispatch struct {
	next    ID
	entries int32
	prof    int32
}

// Plan is the compiled fused form of a task graph: every fused task's
// dispatches, and their distinct multisets (distinct per task). It holds
// no region, section token or block, so every runtime built with the same
// graph may share one (UsePlan). It is compiled once, by the first run
// that may fuse; runs that may not never compile it.
type Plan struct {
	once  sync.Once
	tasks [][]dispatch // by task id; nil for a task with no fused form
	profs []profile
}

// UsePlan makes rt take its fused tasks' plan from p, shared with every
// runtime built with the same task graph. A runtime given none allocates
// its own on the first run that may fuse.
func (rt *Runtime) UsePlan(p *Plan) { rt.plan, rt.fz.blocks = p, nil }

// span is one word range a planned dispatch writes.
type span struct {
	r      *mem.Region
	lo, hi int
}

// Fuse executes bulk chunks in one of three modes: per op, forwarding to
// the device and the Ctx (Ctx.Bulk), the planning walk that compiles a
// Plan, and the applying walk of a funded train. As the executor it holds
// the walks' state and the train being funded, and maps the plan's
// multisets to blocks the device interns (mcu.Device.NewBlock). Each
// Runtime keeps one, across runs.
type Fuse struct {
	rt   *Runtime
	dev  *mcu.Device // rt.dev
	mode uint8
	cnt  *[mcu.NumOps]int32         // the current section slot's counts in prof
	toks *[fuseSlots]mcu.SectionTok // the planned task's slots

	// Planning state of the current dispatch.
	prof    profile
	entries int    // redo-log entries appended
	spans   []span // word ranges written

	// blocks holds each plan multiset's block with the prologue in the
	// commit section; ops is the list blocks are built from.
	blocks []*mcu.Block
	ops    []mcu.BlockOp

	segs []mcu.TrainSeg

	// Backing arrays for the Fuse's slices, so its batches allocate
	// nothing, and each funded dispatch's count of leading log entries a
	// later dispatch of its train rewrites.
	segsBuf [maxFuseBatch]mcu.TrainSeg
	spanBuf [8]span
	opsBuf  [32]mcu.BlockOp
	later   [maxFuseBatch]int

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

// init binds f to rt.
func (f *Fuse) init(rt *Runtime) {
	f.rt, f.dev = rt, rt.dev
	f.segs, f.spans, f.ops = f.segsBuf[:0], f.spanBuf[:0], f.opsBuf[:0]
}

// Planning reports whether the current walk records charges (true) or
// performs them: applying a funded dispatch, or running per op.
func (f *Fuse) Planning() bool { return f.mode == modePlan }

// Section attributes the following recorded ops to t, one of the task's
// three slots, as Device.SetSectionTok does for the per-op path; it
// records nothing outside a plan (chunk bodies do not change sections).
func (f *Fuse) Section(t mcu.SectionTok) {
	if f.mode != modePlan {
		return
	}
	for s, st := range f.toks {
		if st == t {
			f.cnt = &f.prof[s]
			return
		}
	}
	panic("task: fused task charges a section outside its layer's slots")
}

// Ops is Device.Ops(k, n). It stays small enough to inline into chunk
// bodies, which call it several times per chunk.
func (f *Fuse) Ops(k mcu.OpKind, n int) {
	if f.mode == modePlan {
		f.cnt[k] += int32(n)
	} else if f.mode == modePerOp {
		f.dev.Ops(k, n)
	}
}

// Load is Device.LoadRange(r, i, n): loads of words the task reads
// without privatization. Applying, it does nothing; the one call in it
// keeps it inlinable.
func (f *Fuse) Load(r *mem.Region, i, n int) {
	if f.mode != modeApply {
		f.load(r, i, n)
	}
}

// load is Load per op and while planning.
func (f *Fuse) load(r *mem.Region, i, n int) {
	if f.mode == modePlan {
		f.cnt[mcu.LoadOp(r)] += int32(n)
		return
	}
	f.dev.LoadRange(r, i, n)
}

// add records n ops of kind k in section slot s.
func (f *Fuse) add(s int, k mcu.OpKind, n int) { f.prof[s][k] += int32(n) }

// fresh reports whether no word of r[i:i+n] was written earlier in the
// planned dispatch: Fresh over the dispatch's write set, which holds
// exactly its earlier bulk writes.
func (f *Fuse) fresh(r *mem.Region, i, n int) bool {
	for _, s := range f.spans {
		if s.r == r && i < s.hi && s.lo < i+n {
			return false
		}
	}
	return true
}

// Fresh reports whether none of the words r[i:i+n] is privatized in the
// task's write set: a chunk's gate, free of charge, which the Ctx's range
// forms re-verify before charging. Applying, every word is fresh: the
// plan vouched for it. The one call in it keeps it inlinable.
func (f *Fuse) Fresh(r *mem.Region, i, n int) bool {
	return f.mode == modeApply || f.gate(r, i, n)
}

// gate is Fresh per op and while planning.
func (f *Fuse) gate(r *mem.Region, i, n int) bool {
	if f.mode == modePlan {
		return f.fresh(r, i, n)
	}
	rt := f.rt
	return rt.allFresh(rt.regionID(r), i, n)
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

// compile fills p from rt's task graph: the planning walk of every fused
// task, dispatch by dispatch from the start of its pass, until a dispatch
// transitions away.
func (p *Plan) compile(rt *Runtime) {
	f := &rt.fz
	f.mode = modePlan
	p.tasks = make([][]dispatch, len(rt.tasks))
	for id := range rt.tasks {
		e := &rt.tasks[id]
		if e.fused == nil {
			continue
		}
		f.toks = &e.toks
		seen := map[profile]int32{}
		for d := 0; ; d++ {
			f.prof, f.entries, f.spans = profile{}, 0, f.spans[:0]
			f.cnt = &f.prof[0]
			next, ok := e.fused(f, d)
			dp := dispatch{next: next, entries: int32(f.entries), prof: -1}
			if ok {
				f.endPlan()
				pi, known := seen[f.prof]
				if !known {
					pi = int32(len(p.profs))
					seen[f.prof] = pi
					p.profs = append(p.profs, f.prof)
				}
				dp.prof = pi
			}
			p.tasks[id] = append(p.tasks[id], dp)
			if next != ID(id) {
				break
			}
		}
	}
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

// block returns the device's block for task e's multiset pi with its
// prologue — the task-id load and the log-count reset — charged to tokP,
// the section active at its dispatch. Slot 0's ops come last: the
// commit's section is the one the per-op path leaves active at Progress.
// Most dispatches follow their own pass's commit, so the block with the
// prologue there is kept per multiset.
func (f *Fuse) block(e *taskEntry, pi int32, tokP mcu.SectionTok) *mcu.Block {
	keep := tokP == e.toks[0]
	if keep && f.blocks[pi] != nil {
		return f.blocks[pi]
	}
	p, st := &f.rt.plan.profs[pi], f.rt.state
	f.ops = append(f.ops[:0], mcu.BlockOp{Tok: tokP, Kind: mcu.LoadOp(st), N: 1},
		mcu.BlockOp{Tok: tokP, Kind: mcu.StoreOp(st), N: 1})
	for i := 1; i <= fuseSlots; i++ {
		s := i % fuseSlots
		for k, n := range p[s] {
			if n != 0 {
				f.ops = append(f.ops, mcu.BlockOp{Tok: e.toks[s], Kind: mcu.OpKind(k), N: int(n)})
			}
		}
	}
	b := f.dev.NewBlock(f.ops...)
	if keep {
		f.blocks[pi] = b
	}
	return b
}

// run funds and applies consecutive dispatches of task cur, starting at the
// dispatch its cursor names. It stops at the first dispatch that cannot
// fuse or cannot be funded, which the caller then runs per op, or after a
// dispatch that transitions away, reporting true so the caller tries to
// fuse the next task.
func (f *Fuse) run(cur ID) bool {
	rt, dev := f.rt, f.dev
	e := &rt.tasks[cur]
	plan := rt.plan.tasks[cur]
	d := int(e.cur.Get(e.at)) / e.per
	// The first dispatch's prologue is charged to the section left active
	// before it — usually the previous task's commit section, but another
	// layer's, or the one a brown-out interrupted, in the first task of a
	// pass or of an attempt; every later one's to the previous dispatch's
	// commit section.
	tokP := e.toks[0]
	if !dev.InSection(tokP) {
		tokP = dev.SectionToken(dev.Section())
	}
	for {
		f.segs = f.segs[:0]
		planned, stop := 0, false
		for limit := 1; planned < limit; planned++ {
			dp := &plan[d+planned]
			if dp.prof < 0 || int(dp.entries) > rt.cap {
				stop = true
				break
			}
			blk := f.block(e, dp.prof, tokP)
			tokP = e.toks[0]
			if planned == 0 {
				if limit = dev.Fundable(blk, maxFuseBatch); limit == 0 {
					return false
				}
			}
			if n := len(f.segs); n > 0 && f.segs[n-1].Blk == blk {
				f.segs[n-1].N++
			} else {
				f.segs = append(f.segs, mcu.TrainSeg{Blk: blk, N: 1})
			}
			if dp.next != cur {
				planned++
				stop = true
				break
			}
		}
		if planned == 0 {
			return false
		}
		// Fundable already vouched for the first dispatch, so m >= 1.
		m := dev.ChargeTrain(f.segs)
		f.mode = modeApply
		f.log, f.state = rt.log.Words(), rt.state.Words()
		// The final log holds, at each entry index, the last funded
		// dispatch's entry there: later[j] is how many leading entries the
		// dispatches after j rewrite, which j need not write.
		later := 0
		for j := m - 1; j >= 0; j-- {
			f.later[j], later = later, max(later, int(plan[d+j].entries))
		}
		for j := 0; j < m; j++ {
			f.n, f.skip = 0, f.later[j]
			next, _ := e.fused(f, d+j)
			if next != plan[d+j].next {
				panic("task: plan compiled from another task graph")
			}
			f.state[stPhase], f.state[stCur], f.state[stNext], f.state[stCount] = phaseExec, int64(next), int64(next), 0
		}
		d += m
		if m < planned {
			return false
		}
		if stop {
			return plan[d-1].next != cur
		}
	}
}
