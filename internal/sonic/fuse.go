package sonic

import (
	"repro/internal/mcu"
)

// Fused execution of the loop-continuation kernels: each uniform inner
// loop's per-iteration charge profile is captured as an mcu.Block, the
// device funds a whole number of iterations in one call (a one-segment
// mcu.ChargeTrain; the sparse walk's heterogeneous row spans are
// multi-segment trains), and the data movement for exactly those
// iterations runs as one bulk loop over raw memory words (internal/kern). The
// first unfunded iteration — and every non-uniform iteration (resume
// points, CSR row advances, mid-checkpoint-period entries) — runs on the
// unchanged scalar path, so brown-outs land at the identical op index
// with identical partial energy consumption, and logits, Stats, reboot
// placement, and WAR records stay bit-exact (TestFusedScalarDifferential
// and the golden corpus prove it per runtime).

// canFuse reports whether fused kernels may engage: the device allows it
// (no journal or WAR shadow, at most an analysis-only tracer;
// devirtualized power) and no PutObserver is attached to FRAM, where all
// image state lives — an observer must see every store, which only the
// scalar path issues.
func (s *Exec) canFuse() bool {
	return s.Dev.CanFuse() && !s.Dev.FRAM.Observed()
}

// unitBlock builds the charge profile of one fused commit unit from the
// per-iteration body ops and returns it with the unit's iteration count.
// Under loop continuation (Every == 1) a unit is one iteration ending in
// a cursor store; under periodic checkpointing a unit is Every
// iterations, the first Every-1 charging only an index increment and the
// last the register/stack dump plus the cursor store. The body slice is
// consumed (op counts are scaled in place).
func (s *Exec) unitBlock(tokC mcu.SectionTok, body ...mcu.BlockOp) (*mcu.Block, int) {
	per := 1
	if s.Every > 1 {
		per = s.Every
		for i := range body {
			body[i].N *= per
		}
		body = append(body, mcu.BlockOp{Tok: tokC, Kind: mcu.OpIncrement, N: per - 1},
			mcu.BlockOp{Tok: tokC, Kind: mcu.OpStoreFRAM, N: s.RegWords})
	}
	return s.Dev.NewBlock(append(body, mcu.BlockOp{Tok: tokC, Kind: s.cursorKind(), N: 1})...), per
}

// forceUnitBlock builds the charge profile of one iteration that always
// commits through ForceCheckpoint (the sparse undo-logging loop): even
// checkpointing runtimes pay the register dump and cursor store on every
// iteration there. The body slice is consumed.
func (s *Exec) forceUnitBlock(tokC mcu.SectionTok, body ...mcu.BlockOp) *mcu.Block {
	if s.Every > 1 {
		body = append(body, mcu.BlockOp{Tok: tokC, Kind: mcu.OpStoreFRAM, N: s.RegWords})
	}
	return s.Dev.NewBlock(append(body, mcu.BlockOp{Tok: tokC, Kind: s.cursorKind(), N: 1})...)
}

// cursorKind is the op kind StoreIndex charges for the durable cursor.
func (s *Exec) cursorKind() mcu.OpKind {
	if s.Dev.JITIndexCheckpoint {
		return mcu.OpStoreSRAM
	}
	return mcu.OpStoreFRAM
}

// fuseIters funds as many whole commit units as fit in [i, n) and
// returns the funded iteration count (0 when the buffer cannot pay for
// one unit, or when a periodic-checkpoint loop is mid-period — the
// scalar path must reach the next durable commit first).
func (s *Exec) fuseIters(b *mcu.Block, per, i, n int) int {
	if per > 1 && s.sinceCk != 0 {
		return 0
	}
	units := (n - i) / per
	if units <= 0 {
		return 0
	}
	return s.Dev.ChargeTrain([]mcu.TrainSeg{{Blk: b, N: units}}) * per
}

// fuseCommit makes the final fused cursor durable. The scalar path
// stores the cursor at every commit; only the last value survives, and
// with no journal or observer attached (and no tracer subscribed to
// loop-index events) the intermediate stores are unobservable, so one
// coalesced write leaves identical state.
func (s *Exec) fuseCommit(c Cursor) {
	s.Img.Ctl.Put(slotCursor, c.Pack())
	if s.Every > 1 {
		s.sinceCk = 0
	}
}

// FuseUnit is unitBlock for runtimes layered on Exec (TAILS): it builds
// the commit-unit charge profile when fusion may engage and returns a nil
// block (scalar-only) otherwise, so callers pass the result straight to
// FuseMapTok.
func (s *Exec) FuseUnit(tokC mcu.SectionTok, body ...mcu.BlockOp) (*mcu.Block, int) {
	if !s.canFuse() {
		return nil, 1
	}
	return s.unitBlock(tokC, body...)
}

// FuseMapTok is MapLayerTok with the fused fast path (fuseMap) exported
// for runtimes layered on Exec.
func (s *Exec) FuseMapTok(tokK, tokC mcu.SectionTok, blk *mcu.Block, per int, start Cursor, n int, span func(i0, m int), body func(i int)) {
	s.fuseMap(tokK, tokC, blk, per, start, n, span, body)
}

// fuseMap is MapLayerTok with a fused fast path: span(i0, m) performs m
// iterations' data movement in bulk after blk funds them; the remainder
// falls through to the scalar body. Pass blk == nil to force the scalar
// path (its op stream is identical to MapLayerTok's).
func (s *Exec) fuseMap(tokK, tokC mcu.SectionTok, blk *mcu.Block, per int, start Cursor, n int, span func(i0, m int), body func(i int)) {
	dev := s.Dev
	for i := start.I; i < n; {
		if blk != nil {
			if m := s.fuseIters(blk, per, i, n); m > 0 {
				span(i, m)
				i += m
				s.fuseCommit(Cursor{Layer: start.Layer, Pass: start.Pass, I: i})
				continue
			}
		}
		dev.SetSectionTok(tokK)
		dev.Op(mcu.OpBranch)
		body(i)
		dev.SetSectionTok(tokC)
		s.Checkpoint(Cursor{Layer: start.Layer, Pass: start.Pass, I: i + 1})
		i++
	}
}
