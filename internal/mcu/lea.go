package mcu

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mem"
)

// This file models the TI Low-Energy Accelerator (LEA) and the DMA engine.
// LEA's defining constraints (§7, §10) are modelled explicitly:
//
//   - LEA reads and writes only the 4 KB SRAM bank, never FRAM, so all
//     operands must be DMA'd in and results DMA'd out;
//   - it supports vector MAC and one-dimensional FIR discrete-time
//     convolution on Q15 fixed point;
//   - it has no vector left-shift and no scalar multiply, so rescaling
//     passes happen in software (TAILS charges them as control ops);
//   - each invocation has a fixed cost that must be amortized over the
//     vector length.

// DMA copies n words from src[srcOff:] to dst[dstOff:], charging a setup
// cost plus one DMA-word cost per element. The copy proceeds word by word:
// a power failure mid-transfer leaves a partial destination, exactly the
// hazard loop-ordered buffering exists to tolerate.
func (d *Device) DMA(dst *mem.Region, dstOff int, src *mem.Region, srcOff, n int) {
	d.Emit(TraceDMA, dst.Name, int64(n))
	d.Op(OpDMASetup)
	if n <= 0 {
		return
	}
	// Bulk path: one charge for the whole block, with exactly the funded
	// prefix of words transferred — the same partial destination a
	// word-by-word failure leaves.
	funded := d.chargeOps(OpDMAWord, n)
	if d.journal == nil && d.shadow == nil {
		// Bulk move over raw words; SetRange keeps any Put observer fed.
		dst.SetRange(dstOff, src.ROWords()[srcOff:srcOff+funded])
		if funded < n {
			d.brownOut(OpDMAWord)
		}
		return
	}
	if j := d.journal; j != nil {
		j.beginBatch(funded)
	}
	for i := 0; i < funded; i++ {
		if d.shadow != nil {
			d.shadowRead(src, srcOff+i)
			d.shadowWrite(dst, dstOff+i)
		}
		dst.Put(dstOff+i, src.Get(srcOff+i))
	}
	if j := d.journal; j != nil {
		j.endBatch()
	}
	if funded < n {
		d.brownOut(OpDMAWord)
	}
}

// checkLEAOperand panics if a LEA operand is not in SRAM — on real hardware
// this is a wiring impossibility, so it is a programming bug here.
func checkLEAOperand(name string, r *mem.Region) {
	if r.Kind() != mem.SRAM {
		panic(fmt.Sprintf("mcu: LEA operand %s must reside in SRAM, got %s", name, r.Kind()))
	}
}

// checkLEAFootprint panics if the combined operand size exceeds the LEA
// SRAM bank.
func checkLEAFootprint(words int) {
	if words*2 > mem.LEABufferBytes {
		panic(fmt.Sprintf("mcu: LEA working set %d words exceeds %dB bank", words, mem.LEABufferBytes))
	}
}

// LEAMacV computes the Q15 dot product of x[xOff:xOff+n] and y[yOff:yOff+n]
// into a 32-bit accumulator (LEA's MAC instruction). Operands must be in
// SRAM. Charges one invocation plus one element cost per MAC.
func (d *Device) LEAMacV(x *mem.Region, xOff int, y *mem.Region, yOff, n int) fixed.Acc {
	checkLEAOperand("x", x)
	checkLEAOperand("y", y)
	checkLEAFootprint(2 * n)
	d.Emit(TraceLEA, "macv", int64(n))
	d.Op(OpLEAInvoke)
	// One bulk charge for the whole vector. All operands are SRAM, which a
	// brown-out wipes anyway, so charging before computing is
	// indistinguishable from the interleaved scalar order.
	d.Ops(OpLEAElem, n)
	// Reads only — no observer or WAR shadow sees SRAM Gets, so the raw
	// word loop is unconditionally equivalent.
	return fixed.Acc(kern.DotQ15(x.ROWords(), y.ROWords(), xOff, yOff, n))
}

// LEAFIR computes a 1-D FIR discrete-time convolution:
//
//	out[i] = sat( Σ_k coef[k] * in[i+k] >> 15 ),  i in [0, outN)
//
// requiring in to hold outN+coefN-1 valid samples. All three regions must
// be in SRAM. Outputs accumulate LEA's 32-bit precision internally and
// saturate to Q15 on writeback (LEA's fixed output format — any further
// rescaling is the software's problem, as on real hardware).
func (d *Device) LEAFIR(out *mem.Region, outOff int, in *mem.Region, inOff int,
	coef *mem.Region, coefOff, coefN, outN int) {
	checkLEAOperand("out", out)
	checkLEAOperand("in", in)
	checkLEAOperand("coef", coef)
	checkLEAFootprint(outN + coefN + outN + coefN - 1)
	d.Emit(TraceLEA, "fir", int64(outN))
	d.Op(OpLEAInvoke)
	// Bulk charge for the whole invocation; operands and outputs are SRAM,
	// lost at brown-out, so the charge/compute order is unobservable, and
	// never observed (mem.SetObserver), so the kernel writes raw words.
	d.Ops(OpLEAElem, outN*coefN)
	kern.FIR(out.Words(), in.ROWords(), coef.ROWords(), outOff, inOff, coefOff, coefN, outN)
}

// LEAAddV computes elementwise saturating addition dst[i] = sat(a[i]+b[i])
// over n Q15 elements (LEA's vector add), used by TAILS to accumulate
// partial convolution results.
func (d *Device) LEAAddV(dst *mem.Region, dstOff int, a *mem.Region, aOff int,
	b *mem.Region, bOff, n int) {
	checkLEAOperand("dst", dst)
	checkLEAOperand("a", a)
	checkLEAOperand("b", b)
	checkLEAFootprint(3 * n)
	d.Emit(TraceLEA, "addv", int64(n))
	d.Op(OpLEAInvoke)
	d.Ops(OpLEAElem, n) // bulk charge; SRAM-only effects (see LEAFIR)
	kern.AddSatV(dst.Words(), a.ROWords(), b.ROWords(), dstOff, aOff, bOff, n)
}
