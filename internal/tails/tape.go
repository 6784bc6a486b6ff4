package tails

import (
	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
	"repro/internal/tape"
)

// convLayer computes a 2-D convolution as iterated 1-D FIR convolutions
// (§7.2), with loop-ordered buffering at row granularity for idempotence.
// Generations are (channel, kernel-row) pairs; each inner iteration
// convolves one calibrated chunk of one input row with one weight row and
// accumulates into the opposite partial buffer, so the progress unit is
// exactly what calibration sized to the energy buffer. Activations are
// pre-shifted in software so that LEA's fixed Q15 output lands in the
// layer's final scale.
//
// The per-iteration coordinate decodes come from the compiled program.
// The calibrated tile size — and therefore the chunks-per-row count — is
// device state, not model state, so each chunk derives its (row, chunk)
// split from the iteration index; the (f, oy) and (ci, ky) decodes and the
// derived coefficient/input/accumulator offsets all come from the row and
// generation tables. Each generation's chunk walk runs through the
// loop-continuation driver, scalar.
func (t TAILS) convLayer(s *sonic.Exec, sc *scratch, l *core.LayerImage, tl *tape.Layer,
	src, dst *mem.Region, start sonic.Cursor) {
	q := l.Q
	dev := s.Dev
	ow := q.OutShape[2]
	gens := q.C * q.KH
	rows := q.F * q.OutShape[1]
	preShift := q.Shift
	if preShift < 0 {
		preShift = 0
	}
	postShift := -q.Shift
	if postShift < 0 {
		postShift = 0
	}
	ct := tile(s)
	if ct > ow {
		ct = ow
	}
	// Hoist the tables into locals so the chunk loop's opaque device calls
	// don't force slice-header reloads through tl on every access.
	rowAcc, rowSrcY, rowCoef := tl.RowAcc, tl.RowSrcY, tl.RowCoef
	genSrcTab, genCoefTab, filterOf := tl.GenSrc, tl.GenCoef, tl.FilterOf
	// Pre-resolve the layer's kernel/control sections: the chunk loop flips
	// attribution up to six times per chunk.
	tokK := dev.SectionToken(tl.Name, mcu.PhaseKernel)
	tokC := dev.SectionToken(tl.Name, mcu.PhaseControl)

	if start.Pass == 0 {
		chunks := (ow + ct - 1) / ct
		for pos := start.Pos; pos < gens; pos++ {
			dev.SetSectionTok(tokC)
			genSrc := int(genSrcTab[pos])
			coefOff := int(genCoefTab[pos])
			dest, inter := sonic.AccBufs(s.Img, pos)
			c := sonic.Cursor{Layer: start.Layer, Pos: pos}
			if pos == start.Pos {
				c.I = start.I
			}
			// The chunk body enters the kernel section only around FIR and
			// addv, so the driver runs it from the control section.
			s.Loop(tokC, tokC, nil, c, rows*chunks, nil, func(i int) {
				row, c0 := i/chunks, i%chunks*ct
				n := min(ct, ow-c0)
				// Weight row for (f, ci, ky): KW taps. Pruned filters are
				// used densely (zero-padded), as §7.2 describes.
				t.blockIn(dev, sc.coef, 0, l.W, int(rowCoef[row])+coefOff, q.KW)
				acc := int(rowAcc[row]) + c0
				// Input segment covering n outputs: n+KW-1 samples.
				t.blockIn(dev, sc.in, 0, src, genSrc+int(rowSrcY[row])+c0, n+q.KW-1)
				preShiftRow(dev, sc.in, 0, n+q.KW-1, preShift)
				dev.SetSectionTok(tokK)
				t.fir(dev, sc.out, 0, sc.in, 0, sc.coef, 0, q.KW, n)
				dev.SetSectionTok(tokC)
				if pos > 0 {
					t.blockIn(dev, sc.out, n, inter, acc, n)
					dev.SetSectionTok(tokK)
					t.addv(dev, sc.out, 0, sc.out, 0, sc.out, n, n)
					dev.SetSectionTok(tokC)
				}
				t.blockOut(dev, dest, acc, sc.out, 0, n)
			})
			s.Transition(tl.Name, sonic.Cursor{Layer: start.Layer, Pos: pos + 1})
		}
		start = sonic.Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(tl.Name, start)
	}

	// Finalize: post-shift (if the output scale is finer than LEA's) and
	// bias addition, elementwise in software.
	final, _ := sonic.AccBufs(s.Img, gens-1)
	// The per-element charge profile is uniform across the whole layer
	// (post-shift presence is a layer property, and shiftBias always
	// charges one software shift), so one block covers it.
	adds := 1 // shiftBias
	if postShift > 0 {
		adds++
	}
	blk := s.UnitBlock(tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpAdd, N: adds},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	finalW, bW, dstW := final.ROWords(), l.B.ROWords(), dst.Words()
	s.Loop(tokK, tokC, blk, start, q.F*q.OutShape[1]*ow, func(i0, m int) {
		for i := i0; i < i0+m; i++ {
			v := shiftBiasValue(fixed.Q15(finalW[i]), -postShift)
			bq := shiftBiasValue(fixed.Q15(bW[int(filterOf[i])]), q.Shift)
			dstW[i] = int64(fixed.Add(v, bq))
		}
	}, func(i int) {
		dev.Op(mcu.OpBranch)
		f := int(filterOf[i])
		v := fixed.Q15(dev.Load(final, i))
		if postShift > 0 {
			dev.Op(mcu.OpAdd)
			v = shiftBiasValue(v, -postShift)
		}
		bq := shiftBias(dev, fixed.Q15(dev.Load(l.B, f)), q.Shift)
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, i, int64(fixed.Add(v, bq)))
	})
}
