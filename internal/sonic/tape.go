package sonic

import (
	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// convLayer is the loop-ordered-buffering convolution of Fig. 7/Listing 1.
// The outer loop (pos) walks filter elements — the NZ list for pruned
// filters, every element for dense ones. Each inner iteration applies the
// current filter element to one output position, reading only the
// *previous* generation's partials (inter) and writing only the current
// generation's (dest): no location is both read and written, so every
// iteration is idempotent.
//
// Because loops are ordered so a filter's elements are consecutive, each
// filter's output block alternates buffers independently of the others:
// the first element of a filter writes without reading (so no generation
// crosses filters), and the finalize pass picks up each filter's partials
// from the parity of its last element.
//
// Every coordinate decode comes from the compiled program: the
// filter-element decode (kx/ky/ci/f) from WSrc and WAccBase, the
// first-element-of-filter test from First, the inner position decode
// (oy, ox) from PosOff, and the finalize filter decode from FilterOf. The
// NZ boundary probe loads are still issued — they are charged device work
// — but their values feed nothing the tables don't already answer.
func (s *Exec) convLayer(l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, start Cursor) {
	q := l.Q
	positions := tl.Positions
	dev := s.Dev
	// Hoist the tables into locals: dev.Load/Store are opaque calls, so
	// slice reads through the tl pointer would reload the header (and
	// re-bounds-check) on every inner iteration.
	wSrc, wAcc, first, posOff, filterOf := tl.WSrc, tl.WAccBase, tl.First, tl.PosOff, tl.FilterOf
	name := tl.Name
	// Pre-resolve the layer's two attribution sections once: the inner loop
	// flips kernel↔control per iteration, and a token switch is an index
	// load where the string path rebuilds and compares a Section value.
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)

	// The inner loop's charge profile is uniform within one filter element
	// (one branch, the src load, the multiply, the previous-generation
	// load+add except on a filter's first element, the dest store, and the
	// commit), so whole runs of funded iterations execute as bulk word
	// loops.
	blkFirst := s.UnitBlock(tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedMul, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	blkRest := s.UnitBlock(tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedMul, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	srcW := src.ROWords()

	if start.Pass == 0 {
		for pos := start.Pos; pos < tl.Elems; pos++ {
			dev.SetSectionTok(tokC)
			// Task entry (Task_Convolve): load the filter element into
			// volatile registers. Re-executed after every power failure.
			widx := pos
			if l.NZ != nil {
				widx = int(dev.Load(l.NZ, pos))
				if pos > 0 {
					dev.Load(l.NZ, pos-1) // boundary probe, pre-decoded into First
				}
			}
			firstOfFilter := first[pos]
			wv := fixed.Q15(dev.Load(l.W, widx))
			srcBase := int(wSrc[widx])
			base := int(wAcc[widx])
			dest, inter := AccBufs(s.Img, pos)

			c := Cursor{Layer: start.Layer, Pos: pos}
			if pos == start.Pos {
				c.I = start.I
			}
			blk := blkRest
			if firstOfFilter {
				blk = blkFirst
			}
			s.Loop(tokK, tokC, blk, c, positions, func(i0, m int) {
				if firstOfFilter {
					kern.ConvFirst(dest.Words(), srcW, base, srcBase, posOff, i0, m, int64(wv))
				} else {
					kern.ConvMAC(dest.Words(), inter.ROWords(), srcW, base, srcBase, posOff, i0, m, int64(wv))
				}
			}, func(i int) {
				dev.Op(mcu.OpBranch)
				x := fixed.Q15(dev.Load(src, srcBase+int(posOff[i])))
				dev.Op(mcu.OpFixedMul)
				var a fixed.Acc
				if !firstOfFilter {
					a = fixed.Acc(dev.Load(inter, base+i))
					dev.Op(mcu.OpFixedAdd)
				}
				dev.Store(dest, base+i, int64(a.MAC(wv, x)))
			})
			// Task_Next_Filter: swap buffers, reset i, advance pos — one
			// atomic word store since parity is derived from pos.
			s.Transition(name, Cursor{Layer: start.Layer, Pos: pos + 1})
		}
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
	}

	// Finalize, one loop per filter: the charge profile is constant within
	// a filter (the parity lookup when FinPar exists, the bias load, and —
	// except for fully-pruned filters — the partial load and add) but
	// varies across filters, so each filter's segment has its own block.
	fin := func(i int) {
		dev.Op(mcu.OpBranch)
		f := int(filterOf[i])
		var par int64
		if l.FinPar != nil {
			par = dev.Load(l.FinPar, f)
		} else {
			par = int64(((f+1)*tl.EPF - 1) & 1)
		}
		bq := fixed.Q15(dev.Load(l.B, f))
		var a fixed.Acc
		if par >= 0 {
			final, _ := AccBufs(s.Img, int(par))
			a = fixed.Acc(dev.Load(final, i))
			dev.Op(mcu.OpFixedAdd)
		}
		dev.Store(dst, i, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	n := q.F * positions
	for i := start.I; i < n; {
		f := int(filterOf[i])
		segEnd := min((f+1)*positions, n)
		var par int64
		if l.FinPar != nil {
			par = l.FinPar.Get(f)
		} else {
			par = int64(((f+1)*tl.EPF - 1) & 1)
		}
		loads := 2 // bias + partial
		if l.FinPar != nil {
			loads++
		}
		adds := 1
		var finalW []int64
		if par < 0 {
			loads--
			adds = 0
		} else {
			final, _ := AccBufs(s.Img, int(par))
			finalW = final.ROWords()
		}
		blk := s.UnitBlock(tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: loads},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: adds},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		s.Loop(tokK, tokC, blk, Cursor{Layer: start.Layer, Pass: start.Pass, I: i}, segEnd, func(i0, m int) {
			kern.FinalizeConst(dst.Words(), finalW, l.B.Get(f), i0, i0, m, q.Shift)
		}, fin)
		i = segEnd
	}
}

// sparseLayer runs a sparse fully-connected layer with sparse undo-logging
// (§6.2.2): partials accumulate in place in AccA; before each modification
// the original value is copied to a canonical slot and the read index
// advances, so an interrupted update resumes from the buffered original.
// Work per iteration is proportional to the modifications made — one
// nonzero — not to the output size, which is why SONIC prefers it to
// loop-ordered buffering here.
//
// When fusion may engage, the CSR row walk runs as one charge *train* over
// the compiled span tables — one variable-profile segment per row
// remainder plus one boundary segment per row advance, with the advance's
// extra branch and probe-load ops pre-derived from consecutive SpRow
// differences — funded for the whole remaining layer in a single
// ChargeTrain call. kern.CSRSpans then executes exactly the funded
// iterations across row boundaries, committing each touched row's
// accumulator and one coalesced cursor at the end. ChargeTrain drains the
// same integer pJ at the same iteration boundaries as the scalar walk, so
// brown-outs land at identical op indices with identical partial energy.
//
// The first unfunded iteration, the one resume iteration whose undo-log
// read index is already past (rd > pos), and every iteration on an
// observed or scalar-forced device run scalar; after the rd > pos
// iteration executes, rd == pos and the train resumes.
func (s *Exec) sparseLayer(l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, start Cursor) {
	q := l.Q
	dev := s.Dev
	acc := s.Img.AccA
	ctl := s.Img.Ctl
	nnz := len(q.W)
	name := tl.Name
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)

	switch start.Pass {
	case 0:
		// Zero the in-place accumulator (write-only, idempotent), and
		// rearm the undo-log read index (idempotent: re-zeroing after a
		// failure here is harmless because pass 1 has not started).
		blkZero := s.UnitBlock(tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		accW := acc.Words()
		s.Loop(tokK, tokC, blkZero, start, q.Out, func(i0, m int) {
			kern.Zero(accW, i0, m)
		}, func(o int) {
			dev.Op(mcu.OpBranch)
			dev.Store(acc, o, 0)
		})
		dev.Store(ctl, slotRead, 0)
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
		fallthrough
	case 1:
		// row is carried in the cursor's i field so the CSR walk resumes
		// without rescanning RowPtr from zero.
		//
		// Iteration profile: one branch, seven loads (the failing RowPtr
		// probe, the read index, the original partial, the canonical slot,
		// weight, column, activation), the three-store two-phase update,
		// and the MAC; an iteration that advances adv rows adds one
		// successful RowPtr probe (a branch and a load) per row. Sparse
		// undo-logging commits every iteration through ForceCheckpoint, so
		// even checkpointing runtimes pay the register dump and cursor
		// store on each. One block is cached per distinct advance count
		// (networks have very few).
		fuse := s.canFuse()
		var blocks map[int]*mcu.Block
		rowBlock := func(adv int) *mcu.Block {
			if b, ok := blocks[adv]; ok {
				return b
			}
			ops := []mcu.BlockOp{
				{Tok: tokK, Kind: mcu.OpBranch, N: 1 + adv},
				{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 7 + adv},
				{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 3},
				{Tok: tokK, Kind: mcu.OpFixedMul, N: 1},
				{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
			}
			if s.Every > 1 {
				ops = append(ops, mcu.BlockOp{Tok: tokC, Kind: mcu.OpStoreFRAM, N: s.RegWords})
			}
			b := dev.NewBlock(append(ops, mcu.BlockOp{Tok: tokC, Kind: s.cursorKind(), N: 1})...)
			if blocks == nil {
				blocks = make(map[int]*mcu.Block)
			}
			blocks[adv] = b
			return b
		}
		spStart, spLen, spRow, spanOf := tl.SpStart, tl.SpLen, tl.SpRow, tl.SpanOf
		wW, colsW, srcW := l.W.ROWords(), l.Cols.ROWords(), src.ROWords()
		accW := acc.Words()
		var segs []mcu.TrainSeg
		row := start.I
		for pos := start.Pos; pos < nnz; {
			if fuse && int(ctl.Get(slotRead)) <= pos {
				// Build the remaining layer as a segment train from the
				// live (pos, row) state; ChargeTrain funds a prefix.
				si := int(spanOf[pos])
				segs = segs[:0]
				p, r := pos, row
				for sj := si; p < nnz; sj++ {
					end := int(spStart[sj]) + int(spLen[sj])
					inRow := end - p
					if adv := int(spRow[sj]) - r; adv > 0 {
						segs = append(segs, mcu.TrainSeg{Blk: rowBlock(adv), N: 1})
						inRow--
						p++
					}
					if inRow > 0 {
						segs = append(segs, mcu.TrainSeg{Blk: rowBlock(0), N: inRow})
						p += inRow
					}
					r = int(spRow[sj])
				}
				if n := dev.ChargeTrain(segs); n > 0 {
					endPos, _, lastRow, canon := kern.CSRSpans(wW, colsW, srcW, accW, spStart, spLen, spRow, si, pos, n)
					pos = endPos
					row = lastRow
					ctl.Put(slotCanonical, canon)
					ctl.Put(slotRead, int64(pos))
					s.fuseCommit(Cursor{Layer: start.Layer, Pass: 1, Pos: pos, I: row})
					continue
				}
			}
			// Scalar iteration.
			dev.SetSectionTok(tokK)
			dev.Op(mcu.OpBranch)
			// Advance row until RowPtr[row+1] > pos.
			for int(dev.Load(l.RowPtr, row+1)) <= pos {
				dev.Op(mcu.OpBranch)
				row++
			}
			// Sparse undo-logging two-phase update.
			rd := int(dev.Load(ctl, slotRead))
			if rd <= pos {
				orig := dev.Load(acc, row)
				dev.Store(ctl, slotCanonical, orig)
				dev.Store(ctl, slotRead, int64(pos+1))
				// The original value is now durable: overwriting acc[row]
				// is recoverable, not a WAR hazard.
				dev.MarkLogged(acc, row)
			}
			canon := fixed.Acc(dev.Load(ctl, slotCanonical))
			wv := fixed.Q15(dev.Load(l.W, pos))
			col := int(dev.Load(l.Cols, pos))
			x := fixed.Q15(dev.Load(src, col))
			dev.Op(mcu.OpFixedMul)
			dev.Op(mcu.OpFixedAdd)
			dev.Store(acc, row, int64(canon.MAC(wv, x)))
			dev.SetSectionTok(tokC)
			// Sparse undo-logging is only idempotent one iteration deep,
			// so even checkpointing runtimes commit the cursor here.
			s.ForceCheckpoint(Cursor{Layer: start.Layer, Pass: 1, Pos: pos + 1, I: row})
			pos++
		}
		start = Cursor{Layer: start.Layer, Pass: 2}
		s.Transition(name, start)
		fallthrough
	default:
		s.finalize(l, tokK, tokC, start, acc, dst)
	}
}

// poolLayer computes max pooling, one output element per iteration, with
// each window's origin read from the program's PoolBase table.
func (s *Exec) poolLayer(l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, start Cursor) {
	q := l.Q
	w := q.InShape[2]
	poolBase := tl.PoolBase
	tokK := s.Dev.SectionToken(tl.Name, mcu.PhaseKernel)
	tokC := s.Dev.SectionToken(tl.Name, mcu.PhaseControl)
	win := q.Window * q.Window
	blk := s.UnitBlock(tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1 + win},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: win},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	srcW, dstW := src.ROWords(), dst.Words()
	s.Loop(tokK, tokC, blk, start, len(poolBase), func(i0, m int) {
		kern.MaxPool(dstW, srcW, poolBase, q.Window, w, i0, m)
	}, func(i int) {
		s.Dev.Op(mcu.OpBranch)
		rowStart := int(poolBase[i])
		best := fixed.MinusOne
		for ky := 0; ky < q.Window; ky++ {
			for kx := 0; kx < q.Window; kx++ {
				s.Dev.Op(mcu.OpBranch)
				v := fixed.Q15(s.Dev.Load(src, rowStart+kx))
				best = fixed.Max(best, v)
			}
			rowStart += w
		}
		s.Dev.Store(dst, i, int64(best))
	})
}
