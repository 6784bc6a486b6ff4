// Package sonic implements SONIC, the paper's software system for DNN
// inference on intermittent power (§6). SONIC deliberately "breaks the
// rules" of task-based systems: instead of privatizing and redo-logging
// task-shared state, it writes loop indices directly to non-volatile
// memory (loop continuation) and makes every loop iteration idempotent via
// loop-ordered buffering (convolutions and dense fully-connected layers)
// and sparse undo-logging (sparse fully-connected layers).
//
// Progress state is a single packed FRAM word — (layer, pass, pos, i) —
// so each checkpoint is one atomic store, and Task_Next_Filter's
// "atomic { swap buffers; i = 0; pos++ }" (Listing 1) is a single word
// update: the double-buffer parity is derived from pos.
//
// SONIC produces logits bit-identical to dnn.QuantModel.Forward under any
// power schedule.
package sonic

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// SONIC is the software-only runtime. The zero value is the paper's
// configuration; SparseViaBuffering is an ablation knob that disables
// sparse undo-logging and runs sparse fully-connected layers with
// loop-ordered buffering instead, paying the buffer-copying cost §6.2.2
// describes ("SONIC ends up spending most of its time and energy copying
// unmodified activations between buffers").
type SONIC struct {
	SparseViaBuffering bool
}

// Name identifies the runtime.
func (s SONIC) Name() string {
	if s.SparseViaBuffering {
		return "sonic-nosul" // no sparse undo-logging
	}
	return "sonic"
}

// Control-block slots.
const (
	slotCursor    = 0 // packed (layer, pass, pos, i)
	slotRead      = 1 // sparse undo-logging read index
	slotCanonical = 2 // sparse undo-logging canonical value
)

// Cursor packs SONIC's entire progress state into one word so that every
// checkpoint is a single atomic FRAM store. TAILS reuses it.
type Cursor struct {
	Layer int
	Pass  int // 0 = main pass, then layer-specific passes
	Pos   int // outer loop: filter element / input element / nonzero index
	I     int // inner loop: output position / output index
}

// Pack encodes the cursor as a single word.
func (c Cursor) Pack() int64 {
	return int64(c.Layer)<<44 | int64(c.Pass)<<40 | int64(c.Pos)<<20 | int64(c.I)
}

// Unpack decodes a packed cursor word.
func Unpack(v int64) Cursor {
	return Cursor{
		Layer: int(v >> 44),
		Pass:  int(v>>40) & 0xf,
		Pos:   int(v>>20) & 0xfffff,
		I:     int(v) & 0xfffff,
	}
}

// Infer runs one inference with loop continuation. It completes on any
// power system whose buffer can fund a single loop iteration.
func (s SONIC) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	return core.InferOnce(s, img, input)
}

// Prepare implements core.Runtime: SONIC runs every layer on the software
// kernels. Loop continuation needs no special resume handling —
// recovering from whatever the restored cursor says is exactly its normal
// reboot path.
func (s SONIC) Prepare(img *core.Image) (core.Prepared, error) {
	e := Exec{Img: img, Dev: img.Dev, Prog: tape.Get(img.Model), SparseViaBuffering: s.SparseViaBuffering}
	return NewRunner(e, s.Name(), 0, func(e *Exec) { e.Run((*Exec).RunLayerSoftware) }), nil
}

// Runner is the prepared form of every loop-continuation runtime (SONIC,
// TAILS, the checkpointing baseline and the campaign's unsafe control):
// an Exec and the attempt body that drives it. Its ResumeInfer is their
// one drive loop. The Exec's only run-to-run state is volatile, and each
// attempt resets it, so a Runner holds nothing to reset between runs.
type Runner struct {
	Exec
	name    string // the TraceRunBegin label
	arg     int64  // the TraceRunBegin argument
	attempt func() // one attempt, as dev.Run calls it
}

// NewRunner prepares e to run under the TraceRunBegin label name and
// argument arg. Each attempt clears the register-resident state, as a
// reboot does, then calls body.
func NewRunner(e Exec, name string, arg int64, body func(*Exec)) *Runner {
	r := &Runner{Exec: e, name: name, arg: arg}
	r.attempt = func() {
		r.ResetVolatile()
		body(&r.Exec)
	}
	return r
}

// ResumeInfer implements core.Prepared.
func (r *Runner) ResumeInfer(atReboot func() error) ([]fixed.Q15, error) {
	dev := r.Dev
	dev.Emit(mcu.TraceRunBegin, r.name, r.arg)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	if err := dev.Run(r.attempt); err != nil {
		return nil, err
	}
	dev.FlushTrace()
	return r.Img.ReadOutput(FinalParity(r.Img.Model)), nil
}

// Release implements core.Prepared: a Runner holds no regions.
func (*Runner) Release() {}

// FinalParity computes which activation buffer holds the output: every
// value-producing layer flips the ping-pong parity; flatten does not.
func FinalParity(qm *dnn.QuantModel) bool {
	parity := false
	for i := range qm.Layers {
		if qm.Layers[i].Kind != dnn.QFlatten {
			parity = !parity
		}
	}
	return parity
}

// Exec is the volatile execution context shared by SONIC and TAILS; it is
// reconstructed from the packed cursor after every reboot.
type Exec struct {
	Img *core.Image
	Dev *mcu.Device
	// Prog is the image model's compiled program (tape.Get): the layer
	// walks read their pre-decoded tables and section labels from it.
	Prog *tape.Program

	// SparseViaBuffering selects the ablated sparse-FC kernel.
	SparseViaBuffering bool

	// Every > 1 switches the progress policy from loop continuation to
	// periodic checkpointing (package checkpoint): the durable cursor is
	// stored only every Every-th iteration, together with a register/stack
	// dump of RegWords words, and the in-between iterations keep their
	// index in volatile registers. Boundaries (generation, pass, layer)
	// and sparse undo-logging iterations always checkpoint, because
	// re-execution across them is not idempotent.
	Every    int
	RegWords int

	sinceCk int
}

// ResetVolatile clears the engine's register-resident state; runtimes call
// it at the top of every attempt, since a reboot wipes registers.
func (s *Exec) ResetVolatile() { s.sinceCk = 0 }

// LayerFn executes (or resumes) one layer from the given start cursor,
// reading activations from src and writing to dst. SONIC and TAILS supply
// different implementations for the compute-heavy layers.
type LayerFn func(s *Exec, li int, parity bool, start Cursor)

// Checkpoint writes the packed cursor — SONIC's per-iteration progress
// store, the "unsafe" direct NV write that loop continuation legalizes.
func (s *Exec) Checkpoint(c Cursor) {
	if s.Every > 1 {
		s.sinceCk++
		if s.sinceCk < s.Every {
			// Index stays in a volatile register; a failure here replays
			// from the last durable checkpoint (wasted work).
			s.Dev.Op(mcu.OpIncrement)
			return
		}
	}
	s.ForceCheckpoint(c)
}

// ForceCheckpoint makes the cursor durable regardless of the checkpoint
// policy. Under periodic checkpointing it also dumps the modelled
// register/stack state, as software checkpointing systems must.
func (s *Exec) ForceCheckpoint(c Cursor) {
	if s.Every > 1 {
		s.sinceCk = 0
		s.Dev.Emit(mcu.TraceCheckpoint, "", int64(s.RegWords))
		s.Dev.Ops(mcu.OpStoreFRAM, s.RegWords)
	} else {
		s.Dev.Emit(mcu.TraceLoopIndex, "", c.Pack())
	}
	// StoreIndex lets the device model apply the §10 just-in-time index
	// checkpoint architecture when enabled; on the stock MSP430 model it
	// is a plain FRAM store.
	s.Dev.StoreIndex(s.Img.Ctl, slotCursor, c.Pack())
	s.Dev.Progress()
}

// Transition marks a task boundary (filter-element or layer change): one
// cursor store plus the lightweight dispatch cost.
func (s *Exec) Transition(layer string, c Cursor) {
	s.Dev.SetSection(layer, mcu.PhaseTransition)
	s.Dev.Op(mcu.OpTransition)
	s.ForceCheckpoint(c)
}

// Run executes (or resumes) the whole inference. On entry it decodes the
// cursor from FRAM and jumps to the interrupted iteration.
func (s *Exec) Run(layerFn LayerFn) {
	dev := s.Dev
	dev.SetSection("other", mcu.PhaseControl)
	cur := Unpack(dev.Load(s.Img.Ctl, slotCursor))

	parity := false
	for li := 0; li < len(s.Img.Layers); li++ {
		q := s.Img.Layers[li].Q
		flips := q.Kind != dnn.QFlatten
		if li < cur.Layer {
			if flips {
				parity = !parity
			}
			continue // already completed before the last failure
		}
		start := Cursor{Layer: li}
		if li == cur.Layer {
			start = cur
		}
		layerFn(s, li, parity, start)
		if flips {
			parity = !parity
		}
		s.Transition(core.LayerName(s.Img.Model, li), Cursor{Layer: li + 1})
	}
}

// RunLayerSoftware executes one layer from the given resume point using
// SONIC's software kernels.
func (s *Exec) RunLayerSoftware(li int, parity bool, start Cursor) {
	l := &s.Img.Layers[li]
	tl := &s.Prog.Layers[li]
	src, dst := ActBufs(s.Img, parity)
	name := tl.Name
	s.Dev.SetSection(name, mcu.PhaseControl)

	switch l.Q.Kind {
	case dnn.QConv:
		s.convLayer(l, tl, src, dst, start)
	case dnn.QDense:
		s.denseLayer(l, name, src, dst, start)
	case dnn.QSparseDense:
		if s.SparseViaBuffering {
			s.sparseLayerBuffered(l, name, src, dst, start)
		} else {
			s.sparseLayer(l, tl, src, dst, start)
		}
	case dnn.QReLU:
		tokK := s.Dev.SectionToken(name, mcu.PhaseKernel)
		tokC := s.Dev.SectionToken(name, mcu.PhaseControl)
		blk := s.UnitBlock(tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		srcW, dstW := src.ROWords(), dst.Words()
		s.Loop(tokK, tokC, blk, start, l.Q.InShape.Len(), func(i0, m int) {
			kern.ReLU(dstW, srcW, i0, i0, m)
		}, func(i int) {
			s.Dev.Op(mcu.OpBranch)
			v := fixed.ReLU(fixed.Q15(s.Dev.Load(src, i)))
			s.Dev.Store(dst, i, int64(v))
		})
	case dnn.QPool:
		s.poolLayer(l, tl, src, dst, start)
	case dnn.QFlatten:
		// identity: nothing to execute
	}
}

// ActBufs returns (src, dst) activation buffers for a parity.
func ActBufs(img *core.Image, parity bool) (*mem.Region, *mem.Region) {
	if parity {
		return img.ActB, img.ActA
	}
	return img.ActA, img.ActB
}

// AccBufs returns (dest, inter) partial buffers for a filter-element index:
// the double buffer swaps every outer iteration, so parity is pos&1.
func AccBufs(img *core.Image, pos int) (dest, inter *mem.Region) {
	if pos&1 == 0 {
		return img.AccA, img.AccB
	}
	return img.AccB, img.AccA
}

// denseLayer applies loop-ordered buffering to a dense fully-connected
// layer: the outer loop walks input elements, the inner loop updates every
// output's partial in the opposite buffer.
func (s *Exec) denseLayer(l *core.LayerImage, name string, src, dst *mem.Region, start Cursor) {
	q := l.Q
	dev := s.Dev
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)
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
	if start.Pass == 0 {
		wW := l.W.ROWords()
		for pos := start.Pos; pos < q.In; pos++ {
			dev.SetSection(name, mcu.PhaseControl)
			x := fixed.Q15(dev.Load(src, pos))
			dest, inter := AccBufs(s.Img, pos)
			c := Cursor{Layer: start.Layer, Pos: pos}
			if pos == start.Pos {
				c.I = start.I
			}
			blk := blkRest
			if pos == 0 {
				blk = blkFirst
			}
			s.Loop(tokK, tokC, blk, c, q.Out, func(o0, m int) {
				if pos == 0 {
					kern.DenseFirst(dest.Words(), wW, q.In, pos, o0, m, int64(x))
				} else {
					kern.DenseMAC(dest.Words(), inter.ROWords(), wW, q.In, pos, o0, m, int64(x))
				}
			}, func(o int) {
				dev.Op(mcu.OpBranch)
				wv := fixed.Q15(dev.Load(l.W, o*q.In+pos))
				dev.Op(mcu.OpFixedMul)
				var a fixed.Acc
				if pos > 0 {
					a = fixed.Acc(dev.Load(inter, o))
					dev.Op(mcu.OpFixedAdd)
				}
				dev.Store(dest, o, int64(a.MAC(wv, x)))
			})
			s.Transition(name, Cursor{Layer: start.Layer, Pos: pos + 1})
		}
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
	}
	final, _ := AccBufs(s.Img, q.In-1)
	s.finalize(l, tokK, tokC, start, final, dst)
}

// finalize is the dense and sparse layers' last pass, one output per
// iteration: dst[o] = partial[o] + bias[o], rescaled with saturation.
func (s *Exec) finalize(l *core.LayerImage, tokK, tokC mcu.SectionTok, start Cursor, partial, dst *mem.Region) {
	q, dev := l.Q, s.Dev
	blk := s.UnitBlock(tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	partialW, bW, dstW := partial.ROWords(), l.B.ROWords(), dst.Words()
	s.Loop(tokK, tokC, blk, start, q.Out, func(i0, m int) {
		kern.FinalizeVec(dstW, partialW, bW, i0, i0, m, q.Shift)
	}, func(o int) {
		dev.Op(mcu.OpBranch)
		bq := fixed.Q15(dev.Load(l.B, o))
		a := fixed.Acc(dev.Load(partial, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	})
}

// sparseLayerBuffered is the ablation of sparse undo-logging: the sparse
// fully-connected layer computed with loop-ordered buffering, as a dense
// layer would be. Each outer iteration applies one nonzero weight, but must
// copy every *unmodified* partial from the previous generation's buffer to
// the current one so the generations stay coherent — work proportional to
// the output size rather than to the modifications made. This is exactly
// the waste §6.2.2 identifies and sparse undo-logging eliminates.
func (s *Exec) sparseLayerBuffered(l *core.LayerImage, name string, src, dst *mem.Region, start Cursor) {
	q := l.Q
	dev := s.Dev
	nnz := len(q.W)

	if start.Pass == 0 {
		row := start.I
		gen := make([]int64, q.Out)
		for pos := start.Pos; pos < nnz; pos++ {
			dev.SetSection(name, mcu.PhaseControl)
			dest, inter := AccBufs(s.Img, pos)
			// Advance the CSR row cursor (carried in the packed cursor).
			for int(dev.Load(l.RowPtr, row+1)) <= pos {
				dev.Op(mcu.OpBranch)
				row++
			}
			wv := fixed.Q15(dev.Load(l.W, pos))
			col := int(dev.Load(l.Cols, pos))
			x := fixed.Q15(dev.Load(src, col))
			dev.Op(mcu.OpFixedMul)
			prod := fixed.Acc(0).MAC(wv, x)
			dev.SetSection(name, mcu.PhaseKernel)
			// One generation: copy all partials forward, adding the
			// product into the modified row. No checkpoint inside the
			// copy, so the whole generation charges as bulk macro-ops.
			dev.Ops(mcu.OpBranch, q.Out)
			if pos > 0 {
				dev.LoadRange(inter, 0, q.Out)
			}
			dev.Op(mcu.OpFixedAdd) // the one modified row
			for o := 0; o < q.Out; o++ {
				var a fixed.Acc
				if pos > 0 {
					a = fixed.Acc(inter.Get(o))
				}
				if o == row {
					a += prod
				}
				gen[o] = int64(a)
			}
			dev.StoreRange(dest, 0, gen)
			dev.SetSection(name, mcu.PhaseControl)
			s.Checkpoint(Cursor{Layer: start.Layer, Pos: pos + 1, I: row})
		}
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
	}

	var final *mem.Region
	if nnz > 0 {
		final, _ = AccBufs(s.Img, nnz-1)
	}
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)
	s.Loop(tokK, tokC, nil, start, q.Out, nil, func(o int) {
		dev.Op(mcu.OpBranch)
		bq := fixed.Q15(dev.Load(l.B, o))
		var a fixed.Acc
		if final != nil {
			a = fixed.Acc(dev.Load(final, o))
			dev.Op(mcu.OpFixedAdd)
		}
		dev.Store(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	})
}
