package sonic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// TestLoopKeepsCursor checks the loop driver's durable cursor on both of
// its paths: a fused span's one coalesced commit and the scalar path's
// per-iteration Checkpoint must both keep start's Layer, Pass and Pos, so
// a brown-out after either resumes in the right outer iteration. The
// bit-exact oracles on the tiny models never brown out inside a fused
// inner loop with Pos > 0, so only this test and the real-network oracle
// (which then livelocks, re-running the layer from Pos 0) see a commit
// that loses Pos.
func TestLoopKeepsCursor(t *testing.T) {
	qm, _ := tinyModel(t)
	for _, every := range []int{0, 8} {
		for _, perOp := range []bool{false, true} {
			var p energy.System = energy.Continuous{}
			if perOp {
				p = energy.PerOp{S: p}
			}
			dev := mcu.New(p)
			img, err := core.Deploy(dev, qm)
			if err != nil {
				t.Fatal(err)
			}
			s := &Exec{Img: img, Dev: dev, Every: every, RegWords: 4}
			tokK := dev.SectionToken("loop", mcu.PhaseKernel)
			tokC := dev.SectionToken("loop", mcu.PhaseControl)
			blk := s.UnitBlock(tokC, mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1})
			start := Cursor{Layer: 3, Pass: 1, Pos: 5, I: 0}
			spans, iters := 0, 0
			s.Loop(tokK, tokC, blk, start, 16, func(i0, m int) { spans++ }, func(int) { iters++; dev.Op(mcu.OpBranch) })
			want := start
			want.I = 16
			if got := Unpack(img.Ctl.Get(slotCursor)); got != want {
				t.Errorf("every=%d perOp=%v: cursor %+v, want %+v", every, perOp, got, want)
			}
			if perOp && (spans != 0 || iters != 16) {
				t.Errorf("every=%d per-op: %d spans and %d scalar iterations, want 0 and 16", every, spans, iters)
			}
			if !perOp && (spans == 0 || iters != 0) {
				t.Errorf("every=%d fused: %d spans and %d scalar iterations, want >0 and 0", every, spans, iters)
			}
		}
	}
}
