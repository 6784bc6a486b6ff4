package task

import (
	"fmt"
	"sync"

	"repro/internal/mcu"
	"repro/internal/mem"
)

// Fused tasks: the charge-then-compute fast path (mcu/fuse.go) for runs of
// whole tasks.
//
// A task is one atomic commit region — prologue, body, two-phase commit
// ending in Progress — which is exactly the unit mcu.ChargeTrain funds.
// A pass dispatch whose body takes the bulk path in every chunk charges an
// op multiset that is a pure function of its dispatch index: every
// task-shared access is a Fuse.Read, Write or Accumulate, and the write set
// they build is the same on every run. A bulk access splits host-side at
// write-set boundaries: a fresh word is a home load or a new redo-log
// entry, and a word the dispatch already privatized is a log load or an
// in-place log store, as Ctx.Read and Ctx.Write charge them. So a Plan —
// per dispatch of every pass, whether it fuses, its redo-log entry count,
// whether it re-writes a privatized word, its transition target and its op
// multiset by section slot — is compiled once per task graph, for a tile
// runtime once per (model, tile size), by the first run that may fuse.
// When the device may fuse, Run hands the dispatch at a pass's cursor to
// Fuse.run: it looks up the following dispatches' entries, maps their
// multisets to the device's tokens and interned blocks (once per multiset
// and runtime), ChargeTrain funds a prefix of whole tasks, and an applying
// walk performs exactly the funded tasks' effects over raw words — home
// words, redo-log words (in-place updates, and dead entries beyond the
// last task's count, included) and control state, as the per-op path
// leaves them. The first unfunded task runs on the per-op path and browns
// out at the identical op index.
//
// A pass has one body (PassFunc), run by Fuse in all three modes: per op,
// where every call charges the device; planning, where it counts; and
// applying. Each bulk access's op multiset is written once, in Read, Write
// and Accumulate, and charged through Ops and Load, which act by mode. Per
// op a chunk's bulk form charges its ops grouped by kind, which is not the
// scalar order, so per op a chunk declines — before its first charge —
// wherever that order would move a brown-out (short chunks, words already
// privatized (Fresh), passes whose bulk form only planning and applying
// take) and the body runs the chunk's scalar form (Scalar); per op every
// bulk access then touches fresh words only. Planning and applying, a
// chunk takes its bulk form throughout, so a pass whose chunks all have
// one fuses every dispatch. Whether a run fuses is decided per run, from
// the device as it is then.

// PassFunc is a pass task's one body; d is the dispatch's index in the
// pass. It charges the dispatch through f — f.Section, f.Ops, f.Load,
// f.Read, f.Write and f.Accumulate — running a declined chunk through
// f.Scalar, and returns the dispatch's transition target and whether the
// dispatch took the bulk path throughout. Per op, Run calls it at the
// dispatch the pass's cursor names. The planning walk that compiles a Plan
// calls it for every dispatch d = 0, 1, ... in turn, recording its
// charges, which may depend only on d, never on the device's state. The
// applying walk calls it again for each funded dispatch, in order
// (f.Planning() false), to perform its data movement, every task-shared
// write through f.Write or f.Accumulate.
type PassFunc func(f *Fuse, d int) (next ID, ok bool)

// AddPass registers a pass task, one that dispatches itself over a cursor,
// and returns its ID: its dispatch d starts with word at of cur holding
// d*per, and body is its one task body. layer is the section layer the
// body is attributed to; its transition section carries the commit ops,
// and with its control and kernel sections makes the three slots a plan's
// multisets are counted in.
func (rt *Runtime) AddPass(name, layer string, cur *mem.Region, at, per int, body PassFunc) ID {
	e := taskEntry{name: name, pass: body, cur: cur, at: at, per: per}
	for s, ph := range [fuseSlots]mcu.Phase{mcu.PhaseTransition, mcu.PhaseControl, mcu.PhaseKernel} {
		e.toks[s] = rt.dev.SectionToken(layer, ph)
	}
	rt.tasks = append(rt.tasks, e)
	return ID(len(rt.tasks) - 1)
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
// count, multiset's index in Plan.profs (-1: it does not fuse), and
// whether it re-writes a word it privatized, so its applying walk keeps
// the write set.
type dispatch struct {
	next    ID
	entries int32
	prof    int32
	split   bool
}

// Plan is the compiled fused form of a task graph: every pass's
// dispatches, and their distinct multisets (distinct per task). It holds
// no region, section token or block, so every runtime built with the same
// graph may share one (UsePlan). It is compiled once, by the first run
// that may fuse; runs that may not never compile it.
type Plan struct {
	once  sync.Once
	tasks [][]dispatch // by task id; nil for a task added with Add
	profs []profile
}

// UsePlan makes rt take its pass tasks' plan from p, shared with every
// runtime built with the same task graph. A runtime given none allocates
// its own on the first run that may fuse.
func (rt *Runtime) UsePlan(p *Plan) { rt.plan, rt.fz.blocks = p, nil }

// Fuse runs pass bodies in one of three modes: per op, charging the
// device, the planning walk that compiles a Plan, and the applying walk of
// a funded train. As the fused path's executor it holds the walks' state
// and the train being funded, and maps the plan's multisets to blocks the
// device interns (mcu.Device.NewBlock). Each Runtime keeps one, across
// runs.
type Fuse struct {
	rt   *Runtime
	dev  *mcu.Device // rt.dev
	mode uint8
	cnt  *[mcu.NumOps]int32         // the current section slot's counts in prof
	toks *[fuseSlots]mcu.SectionTok // the planned task's slots

	// prof is the planned dispatch's multiset.
	prof profile

	// blocks holds each plan multiset's block with the prologue in the
	// commit section; ops is the list blocks are built from.
	blocks []*mcu.Block
	ops    []mcu.BlockOp

	segs []mcu.TrainSeg

	// Backing arrays for the Fuse's slices, so its batches allocate
	// nothing, and each funded dispatch's count of leading log entries a
	// later dispatch of its train rewrites.
	segsBuf [maxFuseBatch]mcu.TrainSeg
	opsBuf  [32]mcu.BlockOp
	later   [maxFuseBatch]int

	// Raw log and control-state words (applying); the current dispatch's
	// redo-log count (per op, read off the state word at each append); and
	// how many leading log entries a later funded dispatch of the train
	// overwrites, so they need no write (applying).
	log, state []int64
	n, skip    int

	// split marks a dispatch that re-writes a word it privatized: planning,
	// set by its first such write; applying, taken from the plan. Only such
	// a dispatch keeps the write set while applying, for its in-place log
	// updates.
	split bool
}

// Fuse modes.
const (
	modePerOp = iota // charge the device
	modePlan         // record charges
	modeApply        // perform a funded dispatch's effects over raw words
)

// init binds f to rt.
func (f *Fuse) init(rt *Runtime) {
	f.rt, f.dev = rt, rt.dev
	f.segs, f.ops = f.segsBuf[:0], f.opsBuf[:0]
}

// Planning reports whether the current walk records charges (true) or
// performs them: applying a funded dispatch, or running per op.
func (f *Fuse) Planning() bool { return f.mode == modePlan }

// PerOp reports whether the current walk charges the device op by op, in
// the order the body issues them; a chunk's per-op gates apply then only.
func (f *Fuse) PerOp() bool { return f.mode == modePerOp }

// Section switches the following ops to t, one of the task's three
// section slots: per op it is Device.SetSectionTok, planning it selects
// the slot they are counted in, and applying it does nothing.
func (f *Fuse) Section(t mcu.SectionTok) {
	switch f.mode {
	case modePerOp:
		f.dev.SetSectionTok(t)
		return
	case modeApply:
		return
	}
	for s, st := range f.toks {
		if st == t {
			f.cnt = &f.prof[s]
			return
		}
	}
	panic("task: pass charges a section outside its layer's slots")
}

// Scalar is a declined chunk's fallback: per op it runs body, the chunk's
// scalar form, over iterations [lo, hi) through the runtime's Ctx and
// reports true; planning or applying it reports false, for a dispatch with
// a declined chunk does not fuse.
func (f *Fuse) Scalar(body func(c *Ctx, i int), lo, hi int) bool {
	if f.mode != modePerOp {
		return false
	}
	for i := lo; i < hi; i++ {
		body(&f.rt.ctx, i)
	}
	return true
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

// Fresh reports whether none of the words r[i:i+n] is privatized in the
// task's write set: a chunk's per-op gate, free of charge. Per op a bulk
// access must touch fresh words only, so a chunk whose range may hold a
// word the dispatch already wrote declines per op unless Fresh vouches for
// it; that scan is the range's only one per op.
func (f *Fuse) Fresh(r *mem.Region, i, n int) bool { return f.rt.privatized(r, i, n) == 0 }

// Read is the bulk form of n consecutive Ctx.Read calls of words r[i:i+n]
// (n == 1 also stands for one): n privatization lookups, then a load per
// word — from its home location when it is fresh, from its redo-log slot
// when the task already privatized it — segment-grouped within the task,
// which never commits mid-range. Per op every word is fresh (the chunk's
// gate), so the loads are home loads. Values are then read with r.Get:
// the applying walk keeps home words current with the dispatch's own
// writes, so a privatized word reads its logged value there.
func (f *Fuse) Read(r *mem.Region, i, n int) {
	f.Ops(mcu.OpPrivatize, n)
	if f.mode == modePlan {
		k := f.rt.privatized(r, i, n)
		f.cnt[mcu.LoadOp(r)] += int32(n - k)
		f.cnt[mcu.LoadOp(f.rt.log)] += int32(k)
		return
	}
	f.Load(r, i, n)
}

// Write is the bulk form of len(vals) consecutive Ctx.Write calls to words
// r[i:i+len(vals)]: a privatization lookup each, then a fresh redo-log
// entry (logAppend) for a word the task has not written, or an in-place
// store to its log slot (inPlace) for one it has, the range split
// host-side at write-set boundaries. Per op every word is fresh (the
// chunk's gate).
func (f *Fuse) Write(r *mem.Region, i int, vals []int64) {
	f.Ops(mcu.OpPrivatize, len(vals))
	if !f.splits() {
		f.logAppend(r, i, vals)
		return
	}
	rt := f.rt
	id := rt.regionID(r)
	marks, epoch := rt.wsMark[id][i:i+len(vals)], rt.wsEpoch
	for j := 0; j < len(vals); {
		priv := marks[j] == epoch
		m := j + 1
		for m < len(vals) && (marks[m] == epoch) == priv {
			m++
		}
		if priv {
			f.inPlace(r, id, i+j, vals[j:m])
		} else {
			f.logAppend(r, i+j, vals[j:m])
		}
		j = m
	}
}

// Accumulate is the bulk form of k successive read-modify-write pairs
// (Ctx.Read then Ctx.Write) on the single word r[i], as a CSR row walk
// performs on its row's partial accumulator. On a fresh word the first
// pair reads the home location and appends a fresh redo-log entry, and
// each later pair reads and rewrites that log slot in place: 2k
// privatization lookups, one home load, one log append, and k-1 in-place
// log loads and stores. On a word the task already privatized every pair
// reads and rewrites its log slot: 2k lookups, k log loads and k log
// stores. It installs final as the entry's value; the intermediate values
// are never materialized, which is unobservable because an
// execution-phase failure restarts the task and resets the log before any
// of them could be read. The per-pair arithmetic op (FixedAdd) stays with
// the caller, as do the operand loads. Per op r[i] is fresh.
func (f *Fuse) Accumulate(r *mem.Region, i, k int, final int64) {
	f.Ops(mcu.OpPrivatize, 2*k)
	v := [1]int64{final}
	if f.splits() && !f.Fresh(r, i, 1) {
		f.Ops(mcu.LoadOp(f.rt.log), k)
		f.Ops(mcu.StoreOp(f.rt.log), k-1)
		f.inPlace(r, f.rt.regionID(r), i, v[:])
		return
	}
	f.Load(r, i, 1) // the first pair's home read
	f.logAppend(r, i, v[:])
	f.Ops(mcu.OpLoadFRAM, k-1)
	f.Ops(mcu.OpStoreFRAM, k-1)
}

// splits reports whether bulk writes split at write-set boundaries:
// planning, and applying a dispatch the plan found re-writing a word it
// privatized. Per op every bulk write is fresh.
func (f *Fuse) splits() bool {
	return f.mode == modePlan || f.mode == modeApply && f.split
}

// inPlace is the bulk form of Ctx.Write's in-place update for words
// r[i:i+len(vals)] of shared region id, each already privatized by the
// dispatch: one log store per word to its entry's value, with no new entry
// and no log-count access. Applying, it stores the entries no later
// funded dispatch of the train rewrites, and the home words, as the
// commit's replay will.
func (f *Fuse) inPlace(r *mem.Region, id, i int, vals []int64) {
	if f.mode == modePlan {
		f.split = true
		f.Ops(mcu.StoreOp(f.rt.log), len(vals))
		return
	}
	for j, s := range f.rt.wsSlot[id][i : i+len(vals)] {
		if int(s) >= f.skip {
			f.log[2*s+1] = vals[j]
		}
	}
	copy(r.Words()[i:], vals)
}

// logAppend appends fresh redo-log entries holding vals for words
// r[i:i+len(vals)]: per word one log-count load, two contiguous log stores
// and one log-count store, segment-grouped within the task. The log-count
// loads and stores hit the same state word n times; the state region is
// protocol-exempt from WAR tracking, so charging them as bulk FRAM ops is
// observationally identical to n scalar accesses. A power failure mid-way
// leaves log contents that differ word for word from the scalar
// interleaving, but an execution-phase failure restarts the task, which
// resets the log count and write set before any of it can be read.
// Planning, it also records the commit's home stores. Applying, it writes
// the entries no later funded dispatch of the train rewrites, and the
// home words, as the commit's replay will, which keeps them current for
// the dispatch's own later reads; a dispatch that splits also enters the
// words in the write set. Per op, a word the task already privatized
// panics: its chunk must have declined.
func (f *Fuse) logAppend(r *mem.Region, i int, vals []int64) {
	rt, n := f.rt, len(vals)
	if f.mode == modeApply {
		// Most of a train's entries are rewritten by a later dispatch, so
		// the region is resolved only for entries written here, or for the
		// write set of a dispatch that splits.
		if j0 := max(f.skip-f.n, 0); j0 < n || f.split {
			id := rt.regionID(r)
			if j0 < n {
				lw := f.log[2*f.n : 2*(f.n+n)]
				for j := j0; j < n; j++ {
					lw[2*j], lw[2*j+1] = rt.pack(id, i+j), vals[j]
				}
			}
			if f.split {
				rt.mark(id, i, n, f.n)
			}
		}
		f.n += n
		copy(r.Words()[i:], vals)
		return
	}
	id := rt.regionID(r)
	if f.mode == modePerOp {
		if f.n = int(rt.state.Get(stCount)); f.n+n > rt.cap {
			panic(fmt.Sprintf("task: redo log overflow (%d entries): task writes too much task-shared data", rt.cap))
		}
	}
	f.Ops(mcu.OpLoadFRAM, n)
	if f.mode == modePlan {
		f.Ops(mcu.StoreOp(rt.log), 2*n)
		f.add(0, mcu.StoreOp(r), n) // the commit's home stores
	} else {
		if f.dev.Tracer() != nil {
			for j := 0; j < n; j++ {
				f.dev.Emit(mcu.TracePrivatize, r.Name, int64(f.n+j))
			}
		}
		if cap(rt.logScratch) < 2*n {
			rt.logScratch = make([]int64, 2*n)
		}
		entries := rt.logScratch[:2*n]
		for j := 0; j < n; j++ {
			entries[2*j], entries[2*j+1] = rt.pack(id, i+j), vals[j]
		}
		f.dev.StoreRange(rt.log, 2*f.n, entries)
	}
	f.Ops(mcu.OpStoreFRAM, n)
	if !rt.mark(id, i, n, f.n) && f.mode == modePerOp {
		panic(fmt.Sprintf("task: bulk write re-writes a privatized word of %q per op: its chunk must decline", r.Name))
	}
	f.n += n
	if f.mode == modePerOp {
		rt.state.Put(stCount, int64(f.n))
	}
}

// compile fills p from rt's task graph: the planning walk of every pass,
// dispatch by dispatch from the start of its pass, until a dispatch
// transitions away. Each planned dispatch starts with an empty write set.
func (p *Plan) compile(rt *Runtime) {
	f := &rt.fz
	f.mode = modePlan
	p.tasks = make([][]dispatch, len(rt.tasks))
	for id := range rt.tasks {
		e := &rt.tasks[id]
		if e.pass == nil {
			continue
		}
		f.toks = &e.toks
		seen := map[profile]int32{}
		for d := 0; ; d++ {
			f.prof, f.n, f.split = profile{}, 0, false
			f.cnt = &f.prof[0]
			rt.clearWriteSet()
			next, ok := e.pass(f, d)
			dp := dispatch{next: next, entries: int32(f.n), prof: -1, split: f.split}
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
	f.add(0, mcu.LoadOp(lg), 2*f.n)
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
			dp := &plan[d+j]
			f.n, f.skip, f.split = 0, f.later[j], dp.split
			if f.split {
				rt.clearWriteSet()
			}
			next, _ := e.pass(f, d+j)
			if next != dp.next {
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
