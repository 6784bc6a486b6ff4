// Package baseline implements the two comparison points of the paper's
// evaluation (§8):
//
//   - Base: a standard DNN inference implementation with no intermittence
//     support. It keeps loop state in volatile registers and accumulates
//     dot products in registers, so it is fast — but after a power failure
//     it can only restart from the beginning, and on power systems whose
//     buffer is smaller than a whole inference it never completes.
//
//   - Tile-k: inference ported to the Alpaca-style task runtime
//     (package task), with each layer's inner loop split into tasks of k
//     iterations, as in the paper's Fig. 6. Task-shared data (the partial
//     accumulators and loop indices) pay redo-logging on every write and
//     commit at every transition, reproducing the overhead structure of
//     prior task-based systems.
//
// Both produce bit-identical logits to dnn.QuantModel.Forward; the
// difference is cost and whether they tolerate intermittent power.
package baseline

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// Base is the unprotected straight-line implementation.
type Base struct{}

// Name identifies the runtime.
func (Base) Name() string { return "base" }

// Infer runs one inference. Under intermittent power the whole inference
// restarts from scratch on every failure; if it cannot finish within one
// charge cycle it returns mcu.ErrDoesNotComplete.
func (b Base) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	return core.InferOnce(b, img, input)
}

// Prepare implements core.Runtime. Base keeps nothing on the device: its
// loop state lives in registers.
func (Base) Prepare(img *core.Image) (core.Prepared, error) {
	return &baseRun{img: img, prog: tape.Get(img.Model)}, nil
}

// baseRun is Base prepared on one image. The compiled program supplies
// the conv weight decode and pooled scratch, so a brown-out retry
// re-derives and allocates nothing.
type baseRun struct {
	img  *core.Image
	prog *tape.Program
}

// ResumeInfer implements core.Prepared.
func (p *baseRun) ResumeInfer(atReboot func() error) ([]fixed.Q15, error) {
	img, prog := p.img, p.prog
	dev := img.Dev
	dev.Emit(mcu.TraceRunBegin, "base", 0)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	sc := prog.GetScratch()
	defer prog.PutScratch(sc)
	var outB bool
	err := dev.Run(func() {
		parity := false // input in ActA
		for li := range img.Layers {
			parity = baseLayer(dev, img, prog, li, parity, sc)
		}
		outB = parity
	})
	if err != nil {
		return nil, err
	}
	dev.FlushTrace()
	return img.ReadOutput(outB), nil
}

// Release implements core.Prepared: Base holds no regions.
func (*baseRun) Release() {}

// actBufs returns (src, dst) activation buffers for the given parity.
func actBufs(img *core.Image, parity bool) (*mem.Region, *mem.Region) {
	if parity {
		return img.ActB, img.ActA
	}
	return img.ActA, img.ActB
}

// baseLayer executes one layer with register-state loops, returning the new
// buffer parity.
func baseLayer(dev *mcu.Device, img *core.Image, prog *tape.Program, li int,
	parity bool, sc *tape.Scratch) bool {
	l := &img.Layers[li]
	q := l.Q
	tl := &prog.Layers[li]
	src, dst := actBufs(img, parity)
	dev.SetSection(tl.Name, mcu.PhaseControl)

	switch q.Kind {
	case dnn.QConv:
		baseConv(dev, img, prog, l, tl, src, dst, sc)
	case dnn.QDense:
		baseDense(dev, l, tl.Name, src, dst)
	case dnn.QSparseDense:
		baseSparseDense(dev, l, tl.Name, src, dst)
	case dnn.QReLU:
		dev.SetSection(tl.Name, mcu.PhaseKernel)
		n := q.InShape.Len()
		dev.Ops(mcu.OpBranch, n)
		dev.LoadRange(src, 0, n)
		vals := sc.Out[:n]
		kern.ReLU(vals, src.ROWords(), 0, 0, n)
		dev.StoreRange(dst, 0, vals)
	case dnn.QPool:
		basePool(dev, q, tl.Name, src, dst)
	case dnn.QFlatten:
		return parity // identity: no copy, no parity flip
	}
	return !parity
}

// baseConv computes a (possibly pruned) convolution one output at a time,
// accumulating in a register. The weight traversal order matches the host
// reference exactly.
//
// Each filter element's (kx, ky, ci, f) decode comes from the program's
// WSrc/WAccBase tables, and the zero/row/finalize buffers from scratch.
func baseConv(dev *mcu.Device, img *core.Image, prog *tape.Program,
	l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, sc *tape.Scratch) {
	q := l.Q
	w := q.InShape[2]
	oh, ow := q.OutShape[1], q.OutShape[2]
	positions := tl.Positions
	dev.SetSection(tl.Name, mcu.PhaseKernel)

	// Zero the wide accumulators, then sweep filter elements, then
	// finalize. Even Base uses the filter-element-major order (it is also
	// the cache-friendly order on a machine with no cache, and keeps the
	// arithmetic identical across implementations); its advantage over
	// SONIC is purely that loop indices and partials needing no
	// protection stay in registers where possible. Partials for all
	// positions do not fit in registers, so they live in AccA like
	// everyone else's — but without double buffering or index writes.
	acc := img.AccA
	n := q.F * positions
	dev.Ops(mcu.OpBranch, n)
	dev.StoreRange(acc, 0, prog.Zeros(n))
	row := sc.Row[:ow]
	// Charges stay bulk (MACRange/StoreRange); the value computation runs
	// over the raw backing words — Get has no side effects, so the hoist
	// is unconditionally equivalent.
	srcW, accW := src.ROWords(), acc.ROWords()
	apply := func(widx int) {
		wv := fixed.Q15(dev.Load(l.W, widx))
		srcRow := int(tl.WSrc[widx])
		accRow := int(tl.WAccBase[widx])
		for oy := 0; oy < oh; oy++ {
			dev.MACRange(src, srcRow, acc, accRow, ow)
			kern.MACRow(row, accW, srcW, accRow, srcRow, ow, int64(wv))
			dev.StoreRange(acc, accRow, row)
			srcRow += w
			accRow += ow
		}
	}
	if l.NZ != nil {
		for p := 0; p < l.NZ.Len(); p++ {
			dev.Op(mcu.OpBranch)
			apply(int(dev.Load(l.NZ, p)))
		}
	} else {
		for widx := 0; widx < l.W.Len(); widx++ {
			dev.Op(mcu.OpBranch)
			apply(widx)
		}
	}
	// Finalize: bias and rescale into Q15 activations.
	out := sc.Out[:positions]
	for f := 0; f < q.F; f++ {
		b := fixed.Q15(dev.Load(l.B, f))
		base := f * positions
		dev.Ops(mcu.OpBranch, positions)
		dev.LoadRange(acc, base, positions)
		dev.Ops(mcu.OpFixedAdd, positions)
		kern.FinalizeConst(out, accW, int64(b), 0, base, positions, q.Shift)
		dev.StoreRange(dst, base, out)
	}
}

// baseDense computes a fully-connected layer one output at a time with a
// register accumulator.
func baseDense(dev *mcu.Device, l *core.LayerImage, name string, src, dst *mem.Region) {
	q := l.Q
	dev.SetSection(name, mcu.PhaseKernel)
	for o := 0; o < q.Out; o++ {
		var acc fixed.Acc
		row := o * q.In
		dev.MACRange(l.W, row, src, 0, q.In)
		for i := 0; i < q.In; i++ {
			acc = acc.MAC(fixed.Q15(l.W.Get(row+i)), fixed.Q15(src.Get(i)))
		}
		b := fixed.Q15(dev.Load(l.B, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(acc.AddQ(b).SatShiftSigned(q.Shift)))
	}
}

// baseSparseDense walks the CSR rows with a register accumulator.
func baseSparseDense(dev *mcu.Device, l *core.LayerImage, name string, src, dst *mem.Region) {
	q := l.Q
	dev.SetSection(name, mcu.PhaseKernel)
	for o := 0; o < q.Out; o++ {
		var acc fixed.Acc
		lo := int(dev.Load(l.RowPtr, o))
		hi := int(dev.Load(l.RowPtr, o+1))
		cnt := hi - lo
		// Bulk-charge the uniform per-entry work; the activation loads
		// stay scalar because the CSR column gather is not contiguous.
		dev.Ops(mcu.OpBranch, cnt)
		dev.LoadRange(l.W, lo, cnt)
		dev.LoadRange(l.Cols, lo, cnt)
		dev.Ops(mcu.OpFixedMul, cnt)
		dev.Ops(mcu.OpFixedAdd, cnt)
		for p := lo; p < hi; p++ {
			wv := fixed.Q15(l.W.Get(p))
			c := int(l.Cols.Get(p))
			x := fixed.Q15(dev.Load(src, c))
			acc = acc.MAC(wv, x)
		}
		b := fixed.Q15(dev.Load(l.B, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(acc.AddQ(b).SatShiftSigned(q.Shift)))
	}
}

// basePool computes max pooling.
func basePool(dev *mcu.Device, q *dnn.QuantLayer, name string, src, dst *mem.Region) {
	dev.SetSection(name, mcu.PhaseKernel)
	c, h, w := q.InShape[0], q.InShape[1], q.InShape[2]
	oh, ow := h/q.Window, w/q.Window
	n := 0
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := fixed.MinusOne
				dev.Ops(mcu.OpBranch, q.Window*q.Window)
				for ky := 0; ky < q.Window; ky++ {
					rowStart := (ci*h+oy*q.Window+ky)*w + ox*q.Window
					dev.LoadRange(src, rowStart, q.Window)
					for kx := 0; kx < q.Window; kx++ {
						best = fixed.Max(best, fixed.Q15(src.Get(rowStart+kx)))
					}
				}
				dev.Store(dst, n, int64(best))
				n++
			}
		}
	}
}
