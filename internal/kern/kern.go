// Package kern holds the allocation-free fixed-point compute kernels of
// the fused fast path: bulk loops over the raw int64 word slices backing
// mem.Region storage (Region.Words), replacing per-word Get/Put calls and
// per-element fixed-point helper dispatch in the layer walks' inner
// loops.
//
// Every kernel computes exactly what the corresponding scalar loop
// computes, using the same fixed-point primitives (or their verbatim
// integer expansions — Acc.MAC is a plain int64 multiply-add), so the
// values a fused span writes are bit-identical to the scalar path's. The
// energy side of the contract lives in mcu.ChargeTrain: callers charge a
// whole number of loop iterations first, then invoke a kernel for exactly
// that many, so these functions do no accounting and never fail.
//
// Kernels take explicit [i0, i0+m) spans with pre-offset slices so the
// compiler hoists bounds checks out of the loops; none of them allocates.
package kern

import "repro/internal/fixed"

// ConvMAC applies one conv filter element to output positions [i0, i0+m):
// dst[base+j] = inter[base+j] + w·src[srcBase+off[j]], the accumulate
// form of the loop-ordered-buffering inner loop (fixed.Acc.MAC is a plain
// int64 multiply-add).
func ConvMAC(dst, inter, src []int64, base, srcBase int, off []int32, i0, m int, w int64) {
	for j := i0; j < i0+m; j++ {
		dst[base+j] = inter[base+j] + w*src[srcBase+int(off[j])]
	}
}

// ConvFirst is ConvMAC for the first element of a filter, which writes
// without reading the previous generation: dst[base+j] = w·src[...].
func ConvFirst(dst, src []int64, base, srcBase int, off []int32, i0, m int, w int64) {
	for j := i0; j < i0+m; j++ {
		dst[base+j] = w * src[srcBase+int(off[j])]
	}
}

// MACRow applies one conv filter element to a contiguous row of m output
// positions: dst[j] = acc[accOff+j] + w·src[srcOff+j] (dst is a scratch
// row indexed from zero).
func MACRow(dst, acc, src []int64, accOff, srcOff, m int, w int64) {
	for j := 0; j < m; j++ {
		dst[j] = acc[accOff+j] + w*src[srcOff+j]
	}
}

// MulRow is MACRow's first-generation form (no accumulator read):
// dst[j] = w·src[srcOff+j].
func MulRow(dst, src []int64, srcOff, m int, w int64) {
	for j := 0; j < m; j++ {
		dst[j] = w * src[srcOff+j]
	}
}

// DenseRow applies one dense input element x to a scratch row of m
// outputs: dst[j] = acc[accOff+j] + w[wOff+j·stride]·x (the strided
// column of W for this input).
func DenseRow(dst, acc, w []int64, accOff, wOff, stride, m int, x int64) {
	for j := 0; j < m; j++ {
		dst[j] = acc[accOff+j] + w[wOff+j*stride]*x
	}
}

// DenseRowFirst is DenseRow without the accumulator read (first input
// element).
func DenseRowFirst(dst, w []int64, wOff, stride, m int, x int64) {
	for j := 0; j < m; j++ {
		dst[j] = w[wOff+j*stride] * x
	}
}

// DenseMAC applies one dense input element x to outputs [o0, o0+m):
// dst[o] = inter[o] + w[o·stride+wOff]·x (the column of W for this input).
func DenseMAC(dst, inter, w []int64, stride, wOff int, o0, m int, x int64) {
	for o := o0; o < o0+m; o++ {
		dst[o] = inter[o] + w[o*stride+wOff]*x
	}
}

// DenseFirst is DenseMAC for the first input element (no previous
// generation): dst[o] = w[o·stride+wOff]·x.
func DenseFirst(dst, w []int64, stride, wOff int, o0, m int, x int64) {
	for o := o0; o < o0+m; o++ {
		dst[o] = w[o*stride+wOff] * x
	}
}

// CSRRow applies nonzeros [p0, p0+m) of one CSR row to its in-place
// accumulator: acc accumulates sequentially through the span, and the
// return values are the final accumulator and the value it held before
// the last update — the durable content of the sparse undo-log's
// canonical slot after the span.
func CSRRow(w, cols, src []int64, p0, m int, acc int64) (final, canonical int64) {
	for p := p0; p < p0+m; p++ {
		canonical = acc
		acc += w[p] * src[cols[p]]
	}
	return acc, canonical
}

// CSRSpans applies m funded nonzeros starting at position pos to their
// rows' in-place accumulators — the multi-row extension of CSRRow. Spans
// (the compiled (start, len, row) table of rows owning nonzeros) are
// consumed in order from index si; each touched row's final accumulator is
// written back to acc, exactly the per-row canonical-slot commit the
// scalar walk coalesces to. Returns the end position, the end span index,
// the last row touched (the resume cursor's row coordinate), and the
// canonical value — the accumulator before the last update, the durable
// content of the sparse undo-log's canonical slot after the run. Empty
// rows own no span and are never touched; a resume mid-row (pos inside
// span si) simply consumes the span's remainder. m must be >= 1 and the
// caller guarantees pos lies inside span si.
func CSRSpans(w, cols, src, acc []int64, spStart, spLen, spRow []int32, si, pos, m int) (endPos, endSi, lastRow int, canonical int64) {
	for m > 0 {
		row := int(spRow[si])
		end := int(spStart[si]) + int(spLen[si])
		n := end - pos
		if n > m {
			n = m
		}
		// CSRRow's loop, inlined and split: only the value before the
		// span's last update can become the canonical return, so the
		// per-iteration canonical copy is hoisted out of the MAC loop.
		a := acc[row]
		last := pos + n - 1
		for p := pos; p < last; p++ {
			a += w[p] * src[cols[p]]
		}
		canonical = a
		a += w[last] * src[cols[last]]
		acc[row] = a
		lastRow = row
		pos += n
		m -= n
		if pos == end {
			si++
		}
	}
	return pos, si, lastRow, canonical
}

// CSRRowSum returns the sum of the m products w[p]*src[cols[p]] for p in
// [p0, p0+m) — one CSR row segment's contribution without touching the
// accumulator, for executors that buffer the row partial elsewhere (the
// task runtime's redo log) instead of writing it home.
func CSRRowSum(w, cols, src []int64, p0, m int) int64 {
	var a int64
	for p := p0; p < p0+m; p++ {
		a += w[p] * src[cols[p]]
	}
	return a
}

// ReLU rectifies src[srcOff:srcOff+m] into dst[dstOff:dstOff+m].
func ReLU(dst, src []int64, dstOff, srcOff, m int) {
	for j := 0; j < m; j++ {
		dst[dstOff+j] = int64(fixed.ReLU(fixed.Q15(src[srcOff+j])))
	}
}

// MaxPool reduces one window per output element [i0, i0+m): element j's
// window starts at base[j], spans window columns of window rows, with
// rows rowStride words apart.
func MaxPool(dst, src []int64, base []int32, window, rowStride, i0, m int) {
	for j := i0; j < i0+m; j++ {
		rowStart := int(base[j])
		best := fixed.MinusOne
		for ky := 0; ky < window; ky++ {
			for kx := 0; kx < window; kx++ {
				best = fixed.Max(best, fixed.Q15(src[rowStart+kx]))
			}
			rowStart += rowStride
		}
		dst[j] = int64(best)
	}
}

// Zero clears dst[i0:i0+m].
func Zero(dst []int64, i0, m int) {
	for j := i0; j < i0+m; j++ {
		dst[j] = 0
	}
}

// FinalizeVec rescales m accumulators into activations with a
// per-element bias: dst[dstOff+j] = sat((acc[srcOff+j] + bias[srcOff+j]«15)
// » shift), the AddQ+SatShiftSigned finalize of the dense and sparse
// layers.
func FinalizeVec(dst, acc, bias []int64, dstOff, srcOff, m, shift int) {
	for j := 0; j < m; j++ {
		a := fixed.Acc(acc[srcOff+j]).AddQ(fixed.Q15(bias[srcOff+j]))
		dst[dstOff+j] = int64(a.SatShiftSigned(shift))
	}
}

// FinalizeConst is FinalizeVec with one bias for the whole span (a conv
// filter's bias). acc may be nil — a fully-pruned filter has no partials
// and produces bias only.
func FinalizeConst(dst, acc []int64, bias int64, dstOff, srcOff, m, shift int) {
	bq := fixed.Q15(bias)
	if acc == nil {
		v := int64(fixed.Acc(0).AddQ(bq).SatShiftSigned(shift))
		for j := dstOff; j < dstOff+m; j++ {
			dst[j] = v
		}
		return
	}
	for j := 0; j < m; j++ {
		dst[dstOff+j] = int64(fixed.Acc(acc[srcOff+j]).AddQ(bq).SatShiftSigned(shift))
	}
}

// DotQ15 is the LEA vector MAC: the wide dot product of
// x[xOff:xOff+n] and y[yOff:yOff+n] (plain int64 multiply-adds, the
// expansion of fixed.Acc.MAC over Q15 words).
func DotQ15(x, y []int64, xOff, yOff, n int) int64 {
	var acc int64
	for i := 0; i < n; i++ {
		acc += x[xOff+i] * y[yOff+i]
	}
	return acc
}

// FIR is the LEA 1-D discrete-time convolution:
// out[i] = sat(Σ_k coef[k]·in[i+k] » 15) for i in [0, outN).
func FIR(out, in, coef []int64, outOff, inOff, coefOff, coefN, outN int) {
	for i := 0; i < outN; i++ {
		var acc fixed.Acc
		for k := 0; k < coefN; k++ {
			acc += fixed.Acc(coef[coefOff+k] * in[inOff+i+k])
		}
		out[outOff+i] = int64(acc.Sat())
	}
}

// AddSatV is the LEA vector add: dst[i] = sat(a[i]+b[i]) over n Q15
// elements.
func AddSatV(dst, a, b []int64, dstOff, aOff, bOff, n int) {
	for i := 0; i < n; i++ {
		dst[dstOff+i] = int64(fixed.Add(fixed.Q15(a[aOff+i]), fixed.Q15(b[bOff+i])))
	}
}

// ShiftRight arithmetic-right-shifts r[off:off+n] in place (the software
// pre-scale pass LEA cannot perform).
func ShiftRight(r []int64, off, n, sh int) {
	for i := off; i < off+n; i++ {
		r[i] >>= uint(sh)
	}
}
