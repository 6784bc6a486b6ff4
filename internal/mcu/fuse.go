package mcu

// Fused-kernel charging: the charge-then-compute half of the fast path.
//
// A tape executor's inner loop charges the same multiset of operations on
// every iteration and ends each iteration at a durable commit (Progress).
// A Block captures that per-iteration op profile once; ChargeBlock then
// funds and accounts as many whole iterations as the energy buffer can
// pay for in O(ops-per-block) time, and the caller executes exactly that
// many iterations as one tight loop over raw memory words (internal/kern)
// before handing control back to the scalar path. Because only whole
// iterations are ever funded — never the partial one — the first unfunded
// iteration re-executes on the scalar path, charges op by op, and browns
// out at the identical op index with the identical partial energy
// consumption, so logits, Stats, reboot placement, dead time, and
// wasted-work figures are bit-exact with the scalar path.
//
// ChargeBlock is only legal when Device.CanFuse() holds: no journal or WAR
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
// loop. Build it once per layer visit with NewBlock; it is device-local
// (section tokens are) and immutable.
type Block struct {
	ops     []BlockOp
	unitPJ  int64 // energy per iteration, integer picojoules
	unitCyc int64 // live cycles per iteration
	unitOps int64 // charged operations per iteration
}

// UnitOps returns the charged operations per fused iteration.
func (b *Block) UnitOps() int64 { return b.unitOps }

// NewBlock builds the charge profile for one fused-loop iteration. The
// listed ops must be exactly the multiset the scalar iteration charges,
// and the last entry's token must be the section the scalar iteration
// would leave active at its commit.
func (d *Device) NewBlock(ops ...BlockOp) *Block {
	b := &Block{ops: ops}
	for _, op := range ops {
		n := int64(op.N)
		b.unitPJ += n * d.costPJ[op.Kind]
		b.unitCyc += n * d.costCyc[op.Kind]
		b.unitOps += n
	}
	return b
}

// ChargeBlock funds up to n whole iterations of the block and returns how
// many were funded, accounting exactly the funded iterations — op counts,
// the (cycles, pJ) mirrors, section attribution, commit bookkeeping (each
// fused iteration ends in a Progress), wasted-work tracking, and one
// coalesced commit event for an attached analysis tracer. It never charges
// a partial iteration: when the return value m < n, the buffer holds
// whatever the scalar path needs to re-derive the m+1-th iteration's
// failure point itself. Callers must hold CanFuse() and must execute
// exactly m iterations' worth of data movement after a successful charge.
func (d *Device) ChargeBlock(b *Block, n int) int {
	if n <= 0 {
		return 0
	}
	m := n
	if p := d.intPower; p != nil {
		m = p.FundWhole(b.unitPJ, n)
		if m == 0 {
			return 0
		}
	}
	// The scalar loop's last section switch per iteration is the final
	// op's token; leave the device attributed there.
	mm := int64(m)
	last := d.accountBlockOps(b, mm)
	d.section = last.sec
	d.secStats = last.stats
	// Commit bookkeeping: the first fused iteration closes the open
	// region (opsInRegion + one iteration); every later one spans exactly
	// one iteration, which can only be smaller.
	if first := d.opsInRegion + b.unitOps; first > d.stats.MaxRegionOps {
		d.stats.MaxRegionOps = first
	}
	d.commitFused(b.unitCyc*mm, b.unitPJ*mm, m)
	return m
}

// commitFused closes a funded span of commits whole iterations costing
// cyc cycles and pj picojoules: the open region, the non-termination
// counter, the mirrors, the wasted-work baseline, and the coalesced
// commit event all land where the scalar walk's last commit of the span
// leaves them.
func (d *Device) commitFused(cyc, pj int64, commits int) {
	d.opsInRegion = 0
	d.rebootsSinceProgress = 0
	d.cycNow += cyc
	d.pjNow += pj
	if d.wastedTrack {
		d.commitNJ = float64(d.pjNow) * 1e-3
	}
	d.Emit(TraceCommit, d.section.Layer, int64(commits))
}

// accountBlockOps attributes mm funded iterations of the block's op
// profile to their section tokens and returns the last op's resolved
// token entry (the section the scalar loop would leave active). The
// global per-kind counts and opsTotal are derived from the section
// accounting at Stats() time, so this is the only bookkeeping needed.
func (d *Device) accountBlockOps(b *Block, mm int64) *tokEntry {
	for i := range b.ops {
		op := &b.ops[i]
		e := &d.toks[op.Tok]
		if e.stats == nil || e.gen != d.statsGen {
			e.stats = d.resolveSection(e.sec)
			e.gen = d.statsGen
		}
		e.stats.OpCount[op.Kind] += int64(op.N) * mm
	}
	return &d.toks[b.ops[len(b.ops)-1].Tok]
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
// with identical partial energy. Accounting matches ChargeBlock's per
// segment: the section is left at the last funded op's token, and the
// commit bookkeeping (one coalesced commit event included) treats every
// funded iteration as ending in a Progress, exactly as the scalar walk
// would. Callers must hold CanFuse() and execute exactly the funded
// iterations' data movement afterwards.
func (d *Device) ChargeTrain(segs []TrainSeg) int {
	total := 0
	var pjTotal, cycTotal, firstUnit, maxUnit int64
	var last *tokEntry
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
	d.section = last.sec
	d.secStats = last.stats
	if first := d.opsInRegion + firstUnit; first > d.stats.MaxRegionOps {
		d.stats.MaxRegionOps = first
	}
	if maxUnit > d.stats.MaxRegionOps {
		d.stats.MaxRegionOps = maxUnit
	}
	d.commitFused(cycTotal, pjTotal, total)
	return total
}
