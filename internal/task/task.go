// Package task implements a task-based intermittent execution runtime in
// the style of Alpaca (Maeng et al., OOPSLA'17), the state of the art the
// paper compares against. Programs are chains of tasks; each task executes
// atomically with respect to power failures:
//
//   - writes to task-shared non-volatile data are redo-logged during
//     execution;
//   - at the task transition the log is committed to the home locations
//     under a two-phase protocol, so a failure during commit replays the
//     (idempotent) redo log on reboot;
//   - a failure during execution discards the log and restarts the task.
//
// This reproduces the cost structure the paper attributes to prior
// task-based systems: every write pays dynamic buffering, every transition
// pays commit plus dispatch, and every failure wastes the partial task.
//
// The simulated costs are the same whichever way the host executes a
// task. A task is one atomic commit region, so when the device may fuse
// (mcu.Device.CanFuse, and no observer on FRAM) Run funds runs of whole
// tasks through mcu.ChargeTrain and applies their effects over raw words
// (fuse.go). A pass task (AddPass) has one body, written against Fuse,
// which runs per op, in the planning walk that compiles its Plan once per
// task graph, and in the applying walk of every funded train. Planning and
// applying, every chunk takes the bulk path — Fuse.Read, Fuse.Write and
// Fuse.Accumulate calls, which model the redo log's fresh appends and
// in-place updates alike — so every pass dispatch fuses; a chunk declines
// the bulk path per op only, to keep the scalar op order. The first task
// a train cannot fund runs per op and browns out at the identical op. Run
// decides per run, from the device as it is then.
package task

import (
	"fmt"

	"repro/internal/mcu"
	"repro/internal/mem"
)

// ID names a task within a runtime. Done terminates the program.
type ID int32

// Done is the transition target that ends the program.
const Done ID = -1

// execution phases of the two-phase commit protocol.
const (
	phaseExec   = 0
	phaseCommit = 1
)

// state-region word offsets.
const (
	stPhase = 0 // phaseExec or phaseCommit
	stCur   = 1 // current task id
	stNext  = 2 // transition target staged before commit
	stCount = 3 // redo-log entry count

	stateWords = 4
)

// Func is a task body. It must be idempotent up to its task-shared writes
// (which the runtime privatizes) and returns the next task.
type Func func(*Ctx) ID

// Runtime executes a task graph on a device.
type Runtime struct {
	dev *mcu.Device

	tasks []taskEntry
	state *mem.Region
	log   *mem.Region // interleaved (packed address, value) pairs
	cap   int

	shared []*mem.Region
	ids    map[*mem.Region]int

	// The write set maps (region, word) to log slots. It models Alpaca's
	// privatization lookup and is volatile: cleared at task start and
	// implicitly discarded by restarts. The host-side representation is a
	// dense epoch-stamped table per shared region — a wsSlot entry is live
	// only when its wsMark equals the current epoch, so the per-task clear
	// is one counter bump instead of a map wipe.
	wsSlot  [][]int32
	wsMark  [][]uint32
	wsEpoch uint32

	// Two-entry cache for the region→id resolution: task kernels privatize
	// through the same one or two regions (e.g. a finalize pass reading the
	// partial and writing the output) for thousands of consecutive
	// accesses, so this skips the map lookup on nearly every access.
	lastReg, prevReg *mem.Region
	lastID, prevID   int

	// logScratch is the reusable staging buffer for Fuse.Write's
	// interleaved (address, value) log entries.
	logScratch []int64

	// ctx is the one Ctx every per-op dispatch gets, and fz the pass
	// bodies' executor in all three modes. plan is the pass tasks' plan
	// (UsePlan, or allocated by the first run that may fuse and finds
	// none), compiled by the first run that may fuse.
	ctx  Ctx
	fz   Fuse
	plan *Plan
}

// regionID resolves a task-shared region to its dense id, panicking on
// unregistered regions.
func (rt *Runtime) regionID(r *mem.Region) int {
	if r == rt.lastReg {
		return rt.lastID
	}
	if r == rt.prevReg {
		rt.lastReg, rt.prevReg = r, rt.lastReg
		rt.lastID, rt.prevID = rt.prevID, rt.lastID
		return rt.lastID
	}
	id, ok := rt.ids[r]
	if !ok {
		panic(fmt.Sprintf("task: region %q not registered as task-shared", r.Name))
	}
	rt.prevReg, rt.prevID = rt.lastReg, rt.lastID
	rt.lastReg, rt.lastID = r, id
	return id
}

type taskEntry struct {
	name string
	f    Func

	// pass is a pass task's body (AddPass), nil for a task added with Add;
	// its dispatch d starts with cur[at] == d*per, and toks are its
	// layer's sections by slot.
	pass    PassFunc
	cur     *mem.Region
	at, per int
	toks    [fuseSlots]mcu.SectionTok
}

// New creates a runtime on dev with a redo log of logEntries entries.
// The log and control state live in FRAM and count against its capacity.
func New(dev *mcu.Device, logEntries int) (*Runtime, error) {
	if logEntries <= 0 {
		return nil, fmt.Errorf("task: redo log size %d is not positive", logEntries)
	}
	state, err := dev.FRAM.Alloc("task.state", stateWords, 2)
	if err != nil {
		return nil, err
	}
	log, err := dev.FRAM.Alloc("task.redolog", 2*logEntries, 4)
	if err != nil {
		dev.FRAM.Release(state)
		return nil, err
	}
	// Both regions implement the two-phase commit protocol itself; exempt
	// them from WAR checking.
	dev.MarkProtocol(state, log)
	rt := &Runtime{
		dev:   dev,
		state: state,
		log:   log,
		cap:   logEntries,
		ids:   make(map[*mem.Region]int),
	}
	rt.ctx.rt = rt
	rt.fz.init(rt)
	return rt, nil
}

// Release frees the runtime's FRAM footprint.
func (rt *Runtime) Release() {
	rt.dev.FRAM.Release(rt.state)
	rt.dev.FRAM.Release(rt.log)
}

// Reset returns a runtime kept resident across runs to the state New
// left it in, keeping its tasks and shared regions: the control state and
// redo log zeroed, as a fresh allocation gives, and the write set empty.
// A run that starts from scratch then leaves the same nonvolatile image,
// dead log entries included, as one on a newly built runtime.
func (rt *Runtime) Reset() {
	clear(rt.state.Words())
	clear(rt.log.Words())
	rt.clearWriteSet()
}

// Add registers a task and returns its ID.
func (rt *Runtime) Add(name string, f Func) ID {
	rt.tasks = append(rt.tasks, taskEntry{name: name, f: f})
	return ID(len(rt.tasks) - 1)
}

// Share registers a non-volatile region as task-shared: reads and writes to
// it from task bodies go through the redo-log protocol.
func (rt *Runtime) Share(r *mem.Region) {
	if _, ok := rt.ids[r]; ok {
		return
	}
	rt.ids[r] = len(rt.shared)
	rt.shared = append(rt.shared, r)
	rt.wsSlot = append(rt.wsSlot, make([]int32, r.Len()))
	rt.wsMark = append(rt.wsMark, make([]uint32, r.Len()))
}

// clearWriteSet invalidates every write-set entry by advancing the epoch.
// On the (rare) wrap to zero the mark tables are zeroed so stale stamps
// from 2³² tasks ago cannot read as live.
func (rt *Runtime) clearWriteSet() {
	rt.wsEpoch++
	if rt.wsEpoch == 0 {
		for _, marks := range rt.wsMark {
			clear(marks)
		}
		rt.wsEpoch = 1
	}
}

// Start initializes the control state to begin execution at entry. This is
// host-side (deploy/boot-time) work.
func (rt *Runtime) Start(entry ID) {
	rt.state.Put(stPhase, phaseExec)
	rt.state.Put(stCur, int64(entry))
	rt.state.Put(stNext, 0)
	rt.state.Put(stCount, 0)
}

// Run drives the task graph to completion under the device's power system.
// It returns mcu.ErrDoesNotComplete if some task cannot finish within the
// device's energy buffer.
func (rt *Runtime) Run() error {
	fz := &rt.fz
	return rt.dev.Run(func() {
		// Reboot path: a failure during commit must finish the commit by
		// replaying the (idempotent) redo log.
		if rt.dev.Load(rt.state, stPhase) == phaseCommit {
			rt.replayAndFinish()
		}
		// Fused tasks need a device that may fuse and no observer on
		// FRAM, where all task state lives.
		canFuse := rt.dev.CanFuse() && !rt.dev.FRAM.Observed()
		if canFuse {
			if rt.plan == nil {
				rt.plan = new(Plan)
			}
			rt.plan.once.Do(func() { rt.plan.compile(rt) })
			if len(fz.blocks) != len(rt.plan.profs) {
				fz.blocks = make([]*mcu.Block, len(rt.plan.profs))
			}
		}
		for {
			// Fused path: fund and apply runs of whole pass dispatches; the
			// dispatch it stops at runs per op below. Task ids are peeked
			// free of charge; the fused tasks charge their own prologue
			// loads.
			for next := ID(rt.state.Get(stCur)); canFuse && next != Done && rt.tasks[next].pass != nil; next = ID(rt.state.Get(stCur)) {
				if !fz.run(next) {
					break
				}
			}
			cur := ID(rt.dev.Load(rt.state, stCur))
			if cur == Done {
				return
			}
			if int(cur) < 0 || int(cur) >= len(rt.tasks) {
				panic(fmt.Sprintf("task: invalid task id %d", cur))
			}
			// Task prologue: discard any stale log from an interrupted
			// execution and reset the volatile privatization table.
			rt.dev.Emit(mcu.TraceTaskBegin, rt.tasks[cur].name, int64(cur))
			rt.dev.Store(rt.state, stCount, 0)
			rt.clearWriteSet()
			// A pass runs its body per op at the dispatch its cursor names.
			var next ID
			if e := &rt.tasks[cur]; e.pass != nil {
				fz.mode = modePerOp
				next = e.pass(fz, int(e.cur.Get(e.at))/e.per)
			} else {
				next = e.f(&rt.ctx)
			}
			rt.commit(next)
		}
	})
}

// commit runs the two-phase transition: stage the target, enter commit
// phase, replay the log to the home locations, then finish.
func (rt *Runtime) commit(next ID) {
	dev := rt.dev
	layer, _ := dev.Section()
	dev.SetSection(layer, mcu.PhaseTransition)
	dev.Emit(mcu.TraceTaskCommitStage, rt.TaskName(next), int64(next))
	dev.Store(rt.state, stNext, int64(next))
	dev.Store(rt.state, stPhase, phaseCommit)
	rt.replayAndFinish()
}

// replayAndFinish applies every log entry to its home location and
// completes the transition. It is idempotent: a failure anywhere inside
// re-enters it on reboot.
func (rt *Runtime) replayAndFinish() {
	dev := rt.dev
	layer, _ := dev.Section()
	dev.SetSection(layer, mcu.PhaseTransition)
	n := int(dev.Load(rt.state, stCount))
	dev.Emit(mcu.TraceTaskCommitReplay, layer, int64(n))
	// The log is contiguous, so its reads charge as one bulk batch. The
	// home-location writes commit in maximal consecutive-address runs:
	// bulk Fuse.Write appends contiguous spans to the log, so most of a
	// tile's entries replay as a handful of StoreRange batches — each
	// charging exactly one store per word of the same kind the scalar
	// loop would, so the brown-out lands on the identical op. Scattered
	// leftovers fall back to the scalar store.
	dev.LoadRange(rt.log, 0, 2*n)
	lw := rt.log.ROWords()
	for j := 0; j < n; {
		addr := lw[2*j]
		region, idx := rt.decode(addr)
		run := j + 1
		for run < n && lw[2*run] == addr+int64(run-j) {
			run++
		}
		// The home writes are redo-logged: once stPhase is durably
		// phaseCommit the task body never re-reads the old values, and a
		// failure mid-replay rewrites the words from the log. Not a WAR
		// hazard even though the body read these words earlier.
		if m := run - j; m >= 4 {
			if cap(rt.logScratch) < m {
				rt.logScratch = make([]int64, m)
			}
			vals := rt.logScratch[:m]
			for t := 0; t < m; t++ {
				vals[t] = lw[2*(j+t)+1]
			}
			dev.MarkLoggedRange(region, idx, m)
			dev.StoreRange(region, idx, vals)
			j = run
			continue
		}
		for ; j < run; j++ {
			r, i := rt.decode(lw[2*j])
			dev.MarkLogged(r, i)
			dev.Store(r, i, lw[2*j+1])
		}
	}
	dev.Store(rt.state, stCur, dev.Load(rt.state, stNext))
	dev.Store(rt.state, stCount, 0)
	dev.Op(mcu.OpDispatch) // scheduler + two-phase commit bookkeeping
	dev.Store(rt.state, stPhase, phaseExec)
	dev.Progress()
}

// pack encodes a (region, index) pair as a single log address word.
func (rt *Runtime) pack(region int, idx int) int64 {
	return int64(region)<<32 | int64(idx)
}

// decode inverts pack.
func (rt *Runtime) decode(addr int64) (*mem.Region, int) {
	return rt.shared[addr>>32], int(addr & 0xffffffff)
}

// Ctx is the view a task body has of the runtime.
type Ctx struct {
	rt *Runtime
}

// Dev exposes the device for compute operations (multiplies, adds) and for
// reads of read-only data such as weights, which need no privatization.
func (c *Ctx) Dev() *mcu.Device { return c.rt.dev }

// Read reads task-shared data, observing the task's own uncommitted writes
// (read-own-write through the redo log).
func (c *Ctx) Read(r *mem.Region, i int) int64 {
	rt := c.rt
	id := rt.regionID(r)
	rt.dev.Op(mcu.OpPrivatize) // dynamic-buffering lookup
	if rt.wsMark[id][i] == rt.wsEpoch {
		return rt.dev.Load(rt.log, 2*int(rt.wsSlot[id][i])+1)
	}
	return rt.dev.Load(r, i)
}

// Write buffers a task-shared write in the redo log; the home location is
// only updated at commit.
func (c *Ctx) Write(r *mem.Region, i int, v int64) {
	rt := c.rt
	id := rt.regionID(r)
	rt.dev.Op(mcu.OpPrivatize) // dynamic-buffering insertion
	if rt.wsMark[id][i] == rt.wsEpoch {
		rt.dev.Store(rt.log, 2*int(rt.wsSlot[id][i])+1, v)
		return
	}
	n := int(rt.dev.Load(rt.state, stCount))
	if n >= rt.cap {
		panic(fmt.Sprintf("task: redo log overflow (%d entries): task writes too much task-shared data", rt.cap))
	}
	rt.dev.Emit(mcu.TracePrivatize, r.Name, int64(n))
	rt.dev.Store(rt.log, 2*n, rt.pack(id, i))
	rt.dev.Store(rt.log, 2*n+1, v)
	rt.dev.Store(rt.state, stCount, int64(n+1))
	rt.mark(id, i, 1, n)
}

// privatized counts the words of r[i:i+n] with a live write-set entry.
func (rt *Runtime) privatized(r *mem.Region, i, n int) int {
	epoch, k := rt.wsEpoch, 0
	for _, m := range rt.wsMark[rt.regionID(r)][i : i+n] {
		if m == epoch {
			k++
		}
	}
	return k
}

// mark enters words [i, i+n) of shared region id in the write set, at log
// slots n0, n0+1, ..., and reports whether none of them had an entry.
func (rt *Runtime) mark(id, i, n, n0 int) bool {
	slots, marks, epoch := rt.wsSlot[id][i:i+n], rt.wsMark[id][i:i+n], rt.wsEpoch
	fresh := true
	for j := range marks {
		fresh = fresh && marks[j] != epoch
		slots[j] = int32(n0 + j)
		marks[j] = epoch
	}
	return fresh
}

// TaskName returns the registered name of a task (for diagnostics).
func (rt *Runtime) TaskName(id ID) string {
	if id == Done {
		return "done"
	}
	return rt.tasks[id].name
}
