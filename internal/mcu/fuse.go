package mcu

import "slices"

// Fused-kernel charging: the charge-then-compute half of the fast path.
//
// A layer walk's inner loop charges the same multiset of operations on
// every iteration and ends each iteration at a durable commit (Progress).
// A Block captures that per-iteration op profile once; ChargeTrain then
// funds and accounts as many whole iterations as the energy buffer can
// pay for in O(ops-per-block) time per segment, and the caller executes
// exactly that many iterations as one tight loop over raw memory words
// (internal/kern) before handing control back to the scalar path. A
// uniform loop is a one-segment train. Because only whole
// iterations are ever funded — never the partial one — the first unfunded
// iteration re-executes on the scalar path, charges op by op, and browns
// out at the identical op index with the identical partial energy
// consumption, so logits, Stats, reboot placement, dead time, and
// wasted-work figures are bit-exact with the scalar path.
//
// Two executors build trains. SONIC, TAILS and the checkpointing runtime
// fund loop iterations that each end at a cursor commit (internal/sonic).
// The Alpaca-style task runtime funds whole tasks — prologue, all-bulk
// body, redo-log appends, two-phase commit (internal/task): a tile task
// fuses only when every chunk of its body takes the bulk path, so short
// chunks, re-writes of privatized words and scalar-only passes stay per
// op. Fusing changes how many ops one call charges, not the device's
// charging tiers: ChargeTrain funds whole iterations and books a commit
// per iteration; Op, Ops and the Range macro-ops charge the failing op and
// do not commit. Fundable sizes a train before it is charged, and
// FusedOps counts what trains charged.
//
// ChargeTrain is only legal when Device.CanFuse() holds: no journal or WAR
// shadow is attached, so there is no per-op observer to notify, and the
// power system is one of the two devirtualized kinds. A tracer may be
// attached if it subscribes only to ChargeCycleKinds: a funded span emits
// one TraceCommit whose Arg counts the commits it stands for, timestamped
// at the end of the last funded iteration — where the scalar walk's last
// commit of the span sits — so the trace's charge-cycle aggregates are
// exactly the scalar walk's.

// BlockOp is one op kind charged N times per fused iteration, attributed
// to the section Tok.
type BlockOp struct {
	Tok  SectionTok
	Kind OpKind
	N    int
}

// Block is the pre-computed per-iteration charge profile of one fused
// loop, obtained from NewBlock; it is device-local (section tokens are)
// and immutable.
type Block struct {
	ops     []BlockOp
	unitPJ  int64  // energy per iteration, integer picojoules
	unitCyc int64  // live cycles per iteration
	unitOps int64  // charged operations per iteration
	next    *Block // the next interned block with the same hash
}

// UnitOps returns the charged operations per fused iteration.
func (b *Block) UnitOps() int64 { return b.unitOps }

// NewBlock returns the charge profile for one fused-loop iteration. The
// listed ops must be exactly the multiset the scalar iteration charges,
// and the last entry's token must be the section the scalar iteration
// would leave active at its commit. Blocks are interned per device: an op
// list equal to an earlier one returns that block, so executors may ask
// for a block on every layer visit or task, and across the runs of a
// reused device, without allocating. The ops slice is not retained.
func (d *Device) NewBlock(ops ...BlockOp) *Block {
	h := uint64(14695981039346656037) // FNV-1a over the op list
	for _, op := range ops {
		for _, v := range [3]uint64{uint64(op.Tok), uint64(op.Kind), uint64(op.N)} {
			h = (h ^ v) * 1099511628211
		}
	}
	for b := d.blocks[h]; b != nil; b = b.next {
		if slices.Equal(b.ops, ops) {
			return b
		}
	}
	b := &Block{ops: slices.Clone(ops), next: d.blocks[h]}
	for _, op := range ops {
		n := int64(op.N)
		b.unitPJ += n * d.costPJ[op.Kind]
		b.unitCyc += n * d.costCyc[op.Kind]
		b.unitOps += n
	}
	if d.blocks == nil {
		d.blocks = make(map[uint64]*Block)
	}
	d.blocks[h] = b
	return b
}

// commitFused closes a funded span of commits whole iterations costing
// cyc cycles and pj picojoules: the open region, the non-termination
// counter, the mirrors, the commit count, the wasted-work baseline, and
// the coalesced commit event all land where the scalar walk's last
// commit of the span leaves them.
func (d *Device) commitFused(cyc, pj int64, commits int) {
	d.opsInRegion = 0
	d.rebootsSinceProgress = 0
	d.cycNow += cyc
	d.pjNow += pj
	d.stats.Commits += commits
	d.markCommit()
	d.Emit(TraceCommit, d.section.Layer, int64(commits))
}

// accountBlockOps attributes mm funded iterations of the block's op
// profile to their sections in the table, entering each as the scalar
// loop would, and returns the last op's token (the section the scalar
// loop would leave active). The global per-kind counts and opsTotal are
// derived from the table at Stats() time, so this is the only
// bookkeeping needed.
func (d *Device) accountBlockOps(b *Block, mm int64) SectionTok {
	for i := range b.ops {
		op := &b.ops[i]
		e := &d.toks[op.Tok]
		e.entered = true
		e.stats.OpCount[op.Kind] += int64(op.N) * mm
	}
	return b.ops[len(b.ops)-1].Tok
}

// Fundable reports how many whole iterations of b, up to n, ChargeTrain
// could fund now: its count without the charge. Callers that must plan
// each iteration before charging it size their trains with it. Legal
// only while CanFuse() holds.
func (d *Device) Fundable(b *Block, n int) int {
	if p := d.intPower; p != nil {
		return p.Whole(b.unitPJ, n)
	}
	return n
}

// TrainSeg is one homogeneous stretch of a fused block train: N
// consecutive iterations sharing one per-iteration charge profile.
type TrainSeg struct {
	Blk *Block
	N   int
}

// ChargeTrain funds a train of heterogeneous whole iterations — the
// concatenation of each segment's N iterations of its block, in order —
// and returns how many iterations were funded (a train-order prefix).
// The buffer drains segment by segment with the same exact integer
// arithmetic the scalar path performs op by op, and only whole iterations
// are ever funded — never a partial one — so the first unfunded iteration
// re-executes on the scalar path and browns out at the identical op index
// with identical partial energy. Accounting covers exactly the funded
// iterations — op counts, the (cycles, pJ) mirrors, section attribution
// (the device is left at the last funded op's token), the wasted-work
// baseline, and commit bookkeeping (one coalesced commit event included),
// treating every funded iteration as ending in a Progress, exactly as the
// scalar walk would. Callers must hold CanFuse() and execute exactly the funded
// iterations' data movement afterwards.
func (d *Device) ChargeTrain(segs []TrainSeg) int {
	total := 0
	var pjTotal, cycTotal, firstUnit, maxUnit int64
	var last SectionTok
	for si := range segs {
		sg := &segs[si]
		if sg.N <= 0 {
			continue
		}
		m := sg.N
		if p := d.intPower; p != nil {
			m = p.FundWhole(sg.Blk.unitPJ, sg.N)
			if m == 0 {
				break
			}
		}
		mm := int64(m)
		last = d.accountBlockOps(sg.Blk, mm)
		d.fusedOps += sg.Blk.unitOps * mm
		// Region sizes: the train's first funded iteration closes the open
		// region (handled below via firstUnit); every later iteration spans
		// exactly its own block's unitOps.
		if total == 0 {
			firstUnit = sg.Blk.unitOps
			if m > 1 && sg.Blk.unitOps > maxUnit {
				maxUnit = sg.Blk.unitOps
			}
		} else if sg.Blk.unitOps > maxUnit {
			maxUnit = sg.Blk.unitOps
		}
		total += m
		pjTotal += sg.Blk.unitPJ * mm
		cycTotal += sg.Blk.unitCyc * mm
		if m < sg.N {
			break
		}
	}
	if total == 0 {
		return 0
	}
	d.enter(last)
	if first := d.opsInRegion + firstUnit; first > d.stats.MaxRegionOps {
		d.stats.MaxRegionOps = first
	}
	if maxUnit > d.stats.MaxRegionOps {
		d.stats.MaxRegionOps = maxUnit
	}
	d.commitFused(cycTotal, pjTotal, total)
	return total
}
