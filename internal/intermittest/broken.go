package intermittest

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/sonic"
	"repro/internal/tape"
)

// Broken is the campaign's deliberately unsafe negative control: a SONIC
// variant whose dense fully-connected layers accumulate *in place* — read
// the partial, add, write it back — without double buffering or undo
// logging. Under continuous power it is bit-identical to SONIC (same
// accumulation order), so only the fault-injection campaign can tell them
// apart: a brown-out landing between the partial's store and the cursor
// commit replays the iteration and applies its multiply-accumulate twice.
// This is exactly the WAR bug class of §4; the consistency checker must
// flag it and the differential sweep must observe corrupted logits.
type Broken struct{}

// Name identifies the runtime.
func (Broken) Name() string { return "broken" }

// Infer mirrors SONIC's with the unsafe dense kernel patched in.
func (b Broken) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	return core.InferOnce(b, img, input)
}

// Prepare implements core.Runtime with SONIC's drive loop, so the
// campaign's fork path covers the negative control too — its corrupted
// logits must survive forking bit-for-bit for the sweep's verdicts to stay
// trustworthy.
func (Broken) Prepare(img *core.Image) (core.Prepared, error) {
	e := sonic.Exec{Img: img, Dev: img.Dev, Prog: tape.Get(img.Model)}
	return sonic.NewRunner(e, "broken", 0, func(e *sonic.Exec) { e.Run(brokenLayer) }), nil
}

// brokenLayer is Broken's layer dispatch: dense layers run the in-place
// kernel, everything else falls back to SONIC's safe software kernels.
func brokenLayer(s *sonic.Exec, li int, parity bool, start sonic.Cursor) {
	l := &s.Img.Layers[li]
	if l.Q.Kind != dnn.QDense {
		s.RunLayerSoftware(li, parity, start)
		return
	}
	q := l.Q
	dev := s.Dev
	src, dst := sonic.ActBufs(s.Img, parity)
	acc := s.Img.AccA
	name := s.Prog.Layers[li].Name
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)
	// Every pass runs through the loop-continuation driver with no block,
	// so every iteration runs scalar and a brown-out can land between any
	// partial's store and its cursor commit.
	switch start.Pass {
	case 0:
		// Zero the in-place accumulator (write-only, idempotent — the bug
		// is not here).
		s.Loop(tokK, tokC, nil, start, q.Out, nil, func(o int) {
			dev.Op(mcu.OpBranch)
			dev.Store(acc, o, 0)
		})
		start = sonic.Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
		fallthrough
	case 1:
		// In-place accumulation: acc[o] += W[o,i]·x[i]. Re-executing an
		// iteration after a brown-out reads the already-updated partial —
		// the classic non-idempotent loop body.
		s.Loop(tokK, tokC, nil, start, q.In*q.Out, nil, func(it int) {
			dev.Op(mcu.OpBranch)
			i, o := it/q.Out, it%q.Out
			x := fixed.Q15(dev.Load(src, i))
			wv := fixed.Q15(dev.Load(l.W, o*q.In+i))
			dev.Op(mcu.OpFixedMul)
			a := fixed.Acc(dev.Load(acc, o))
			dev.Op(mcu.OpFixedAdd)
			dev.Store(acc, o, int64(a.MAC(wv, x)))
		})
		start = sonic.Cursor{Layer: start.Layer, Pass: 2}
		s.Transition(name, start)
		fallthrough
	default:
		s.Loop(tokK, tokC, nil, start, q.Out, nil, func(o int) {
			dev.Op(mcu.OpBranch)
			bq := fixed.Q15(dev.Load(l.B, o))
			a := fixed.Acc(dev.Load(acc, o))
			dev.Op(mcu.OpFixedAdd)
			dev.Store(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
		})
	}
}
