package sonic

import (
	"repro/internal/mcu"
)

// Loop continuation as one driver. Every map-shaped inner loop of the
// loop-continuation runtimes (SONIC, checkpointing, TAILS's LEA conv and
// dense chunk walks — which pass no block — and its finalize, the
// campaign's Broken control) runs through Exec.Loop: each iteration ends in one durable cursor store, so
// whenever UnitBlock could build the loop's per-iteration charge profile
// as an mcu.Block the device funds a whole number of commit units in one
// call (a one-segment mcu.ChargeTrain) and the data movement for exactly
// those iterations runs as one bulk loop over raw memory words
// (internal/kern). The first unfunded iteration — and every iteration of
// a loop with no block, a resume mid-checkpoint-period, or a device that
// may not fuse — runs the loop's scalar body, so brown-outs land at the
// identical op index with identical partial energy consumption, and
// logits, Stats, reboot placement, and WAR records stay bit-exact
// (TestFusedScalarDifferential and the golden corpus prove it per
// runtime). The body charges every op its block lists, the loop-head
// branch of SONIC-style bodies included; the driver charges only the
// commit. Only the sparse CSR walk, whose row spans are heterogeneous
// multi-segment trains, keeps its own shape.

// canFuse reports whether fused kernels may engage: the device allows it
// (no journal or WAR shadow, at most an analysis-only tracer;
// devirtualized power) and no PutObserver is attached to FRAM, where all
// image state lives — an observer must see every store, which only the
// scalar path issues.
func (s *Exec) canFuse() bool {
	return s.Dev.CanFuse() && !s.Dev.FRAM.Observed()
}

// UnitBlock builds the charge profile of one fused commit unit from the
// per-iteration body ops, or returns nil (scalar only) when fused kernels
// may not engage. Under loop continuation (Every <= 1) a unit is one
// iteration ending in a cursor store; under periodic checkpointing a unit
// is Every iterations, the first Every-1 charging only an index increment
// and the last the register/stack dump plus the cursor store. The body
// slice is consumed (op counts are scaled in place).
func (s *Exec) UnitBlock(tokC mcu.SectionTok, body ...mcu.BlockOp) *mcu.Block {
	if !s.canFuse() {
		return nil
	}
	if s.Every > 1 {
		for i := range body {
			body[i].N *= s.Every
		}
		body = append(body, mcu.BlockOp{Tok: tokC, Kind: mcu.OpIncrement, N: s.Every - 1},
			mcu.BlockOp{Tok: tokC, Kind: mcu.OpStoreFRAM, N: s.RegWords})
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

// Loop runs an inner loop with loop continuation: it keeps start's Layer,
// Pass and Pos and walks I over [start.I, n). Where blk (from UnitBlock)
// can fund whole commit units, span(i0, m) performs those m iterations'
// data movement in bulk and the cursor commits once; every other
// iteration runs body(i) with section tokK current, then commits its
// cursor in section tokC. body charges exactly the ops blk lists for one
// iteration, a loop-head branch included where the loop has one. A nil
// blk runs every iteration scalar (span is then never called). Under
// periodic checkpointing units start only at a durable commit (sinceCk
// == 0): mid-period the scalar path must reach the next one first.
func (s *Exec) Loop(tokK, tokC mcu.SectionTok, blk *mcu.Block, start Cursor, n int, span func(i0, m int), body func(i int)) {
	dev := s.Dev
	per := max(s.Every, 1)
	c := start
	for c.I < n {
		if units := (n - c.I) / per; blk != nil && units > 0 && s.sinceCk == 0 {
			if m := dev.ChargeTrain([]mcu.TrainSeg{{Blk: blk, N: units}}) * per; m > 0 {
				span(c.I, m)
				c.I += m
				s.fuseCommit(c)
				continue
			}
		}
		dev.SetSectionTok(tokK)
		body(c.I)
		dev.SetSectionTok(tokC)
		c.I++
		s.Checkpoint(c)
	}
}

// fuseCommit makes the final fused cursor durable. The scalar path
// stores the cursor at every commit; only the last value survives, and
// with no journal or observer attached (and no tracer subscribed to
// loop-index events) the intermediate stores are unobservable, so one
// coalesced write leaves identical state. A fused span always ends on a
// durable commit, so the checkpoint period restarts (sinceCk stays 0
// under loop continuation).
func (s *Exec) fuseCommit(c Cursor) {
	s.Img.Ctl.Put(slotCursor, c.Pack())
	s.sinceCk = 0
}
