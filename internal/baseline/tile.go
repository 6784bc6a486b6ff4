package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
	"repro/internal/task"
)

// Tile is DNN inference ported onto the Alpaca-style task runtime with a
// fixed tiling: each task executes TileSize loop iterations, then
// transitions (committing its redo log). The paper evaluates Tile-8,
// Tile-32, and Tile-128.
//
// Iteration granularity mirrors SONIC's loop structure (Fig. 6/7): a
// convolution iteration applies one filter element across all output
// positions; a dense fully-connected iteration applies one input element
// across all outputs; a sparse fully-connected iteration applies one
// nonzero weight; activation and pooling iterations produce one output
// element. All partial accumulators are task-shared, so every update pays
// redo-logging — the cost SONIC eliminates.
type Tile struct {
	TileSize int
}

// DefaultLogEntries is sized for the largest per-task write set: a tile of
// per-MAC iterations writes at most TileSize distinct partials plus the
// loop cursor.
const DefaultLogEntries = 512

// Name identifies the runtime, e.g. "tile-32".
func (t Tile) Name() string { return fmt.Sprintf("tile-%d", t.TileSize) }

// ctl-slot index within the image control block used for the pass cursor.
const tileCursorSlot = 0

// minBulk is the chunk length below which a chunk body declines the bulk
// path per op (the pass body runs the scalar passFn over it): tiny chunks
// don't amortize the range machinery.
const minBulk = 4

// Infer builds the task graph over the deployed image and drives it to
// completion.
func (t Tile) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	return core.InferOnce(t, img, input)
}

// tileRun is a Tile runtime prepared on one image: the task runtime and
// the task graph built over it.
type tileRun struct {
	t    Tile
	name string // t.Name()
	img  *core.Image
	rt   *task.Runtime
	// outB is the parity of the buffer holding the final output.
	outB bool
	// ran records that the runtime has run since it was prepared, so its
	// regions no longer hold what a fresh allocation gives.
	ran bool
}

// planKey keys a tile size's task plan in the model's tape.Program: the
// task graph, and with it the plan, is a function of the model and the
// tile size alone.
type planKey int

// Prepare implements core.Runtime: it allocates the task runtime (state
// and redo log, in that order, after the deployed regions), registers the
// image's working buffers as task-shared, and builds the task graph. The
// graph serves every run: task.Run decides per run whether its passes
// fuse. Every runtime of one (model, tile size) shares one task.Plan,
// compiled by the first run that may fuse.
func (t Tile) Prepare(img *core.Image) (core.Prepared, error) {
	if t.TileSize <= 0 {
		return nil, fmt.Errorf("baseline: invalid tile size %d", t.TileSize)
	}
	rt, err := task.New(img.Dev, DefaultLogEntries)
	if err != nil {
		return nil, fmt.Errorf("baseline: allocating task runtime: %w", err)
	}
	for _, r := range []*mem.Region{img.ActA, img.ActB, img.AccA, img.AccB, img.Ctl} {
		if r != nil {
			rt.Share(r)
		}
	}
	b := &tileBuilder{img: img, rt: rt, k: t.TileSize, prog: tape.Get(img.Model)}
	outB, err := b.build()
	if err != nil {
		rt.Release()
		return nil, err
	}
	rt.UsePlan(b.prog.Memo(planKey(t.TileSize), func() any { return new(task.Plan) }).(*task.Plan))
	return &tileRun{t: t, name: t.Name(), img: img, rt: rt, outB: outB}, nil
}

// ResumeInfer implements core.Prepared: the task runtime is reset (after
// an earlier run) and started, then atReboot — whose prefix restore
// overwrites that nonvolatile state — then the run.
func (p *tileRun) ResumeInfer(atReboot func() error) ([]fixed.Q15, error) {
	img := p.img
	if p.ran {
		p.rt.Reset()
	}
	p.ran = true
	img.Dev.Emit(mcu.TraceRunBegin, p.name, int64(p.t.TileSize))
	p.rt.Start(0)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	if err := p.rt.Run(); err != nil {
		return nil, err
	}
	img.Dev.FlushTrace()
	return img.ReadOutput(p.outB), nil
}

// Release implements core.Prepared.
func (p *tileRun) Release() { p.rt.Release() }

// passFn executes one loop iteration of a pass.
type passFn func(c *task.Ctx, iter int)

// chunkFn is a pass's bulk form, run by the pass's one task body in all
// three of task.Fuse's modes. It takes the first chunk of iterations
// [lo, hi) — a run uniform in op kinds, and for its task-shared accesses
// contiguous in memory — and returns the chunk's length n and whether the
// chunk took the bulk path. A bulk chunk charges the scalar body's op
// multiset per iteration, grouped by kind; a task-shared word the
// dispatch already wrote costs what the scalar body's in-place log update
// does (task.Fuse.Read, Write). Planning and applying, every chunk takes
// the bulk path, so every tile dispatch fuses. Per op the order of the
// charges decides where a brown-out lands, and each pass keeps one per-op
// order: a chunk's per-op gates (f.PerOp: n >= minBulk, and Fresh on a
// range the dispatch may already have written) come before its first
// charge, so a declined chunk charges nothing and the body runs the scalar
// passFn over its n iterations. The pool pass and a pruned conv-acc pass
// decline every chunk per op. Only the accumulating passes can meet a word
// their dispatch wrote: every other pass writes disjoint chunks and never
// reads what it writes, and a sparse row's nonzeros are one chunk of a
// dispatch, so their chunks have no Fresh gate (per op, task.Fuse panics
// on a bulk write to a privatized word).
type chunkFn func(f *task.Fuse, lo, hi int) (n int, bulk bool)

// addPassFn registers a pass: name, layer label, iteration count, scalar
// body, and chunk body.
type addPassFn func(name, layer string, n int, f passFn, chunk chunkFn)

// tileBuilder assembles the per-layer pass tasks. Because the layer graph
// is static, each task closes over its source/destination buffers; only
// loop cursors live in task-shared memory.
type tileBuilder struct {
	img *core.Image
	rt  *task.Runtime
	k   int
	// prog supplies the pre-decoded per-layer tables and section labels.
	prog *tape.Program
	// cursor stages the pass bodies' one-word cursor writes.
	cursor [1]int64
}

// build creates all tasks in execution order; task 0 is the entry. It
// returns the parity of the buffer holding the final output.
func (b *tileBuilder) build() (bool, error) {
	parity := false
	type pass struct {
		name  string
		layer string
		n     int
		f     passFn
		chunk chunkFn
	}
	var passes []pass
	addPass := func(name, layer string, n int, f passFn, chunk chunkFn) {
		passes = append(passes, pass{name, layer, n, f, chunk})
	}

	for li := range b.img.Layers {
		l := &b.img.Layers[li]
		q := l.Q
		src, dst := actBufs(b.img, parity)
		tl := &b.prog.Layers[li]
		layer := tl.Name
		switch q.Kind {
		case dnn.QConv:
			b.convPasses(addPass, l, tl, src, dst)
			parity = !parity
		case dnn.QDense:
			b.densePasses(addPass, l, layer, src, dst)
			parity = !parity
		case dnn.QSparseDense:
			b.sparsePasses(addPass, l, layer, src, dst)
			parity = !parity
		case dnn.QReLU:
			reluIter := func(c *task.Ctx, i int) {
				dev := c.Dev()
				dev.Op(mcu.OpBranch)
				v := fixed.ReLU(fixed.Q15(c.Read(src, i)))
				c.Write(dst, i, int64(v))
			}
			vals := make([]int64, b.k)
			addPass("relu", layer, q.InShape.Len(), reluIter, func(f *task.Fuse, lo, hi int) (int, bool) {
				n := hi - lo
				if n < minBulk && f.PerOp() {
					return n, false
				}
				f.Ops(mcu.OpBranch, n)
				f.Read(src, lo, n)
				if !f.Planning() {
					kern.ReLU(vals, src.ROWords(), 0, lo, n)
				}
				f.Write(dst, lo, vals[:n])
				return n, true
			})
			parity = !parity
		case dnn.QPool:
			b.poolPass(addPass, q, tl, src, dst)
			parity = !parity
		case dnn.QFlatten:
			// identity
		}
	}

	// Materialize each pass as one self-transitioning task over a shared
	// cursor in the control block, with one body — cursor read, body
	// chunks, cursor write — that task.Fuse runs per op, planning and
	// applying. Each pass's two attribution sections are pre-resolved
	// into tokens, so no activation constructs a Section.
	ctl := b.img.Ctl
	for pi := range passes {
		p := passes[pi]
		next := task.ID(pi + 1)
		if pi == len(passes)-1 {
			next = task.Done
		}
		self := task.ID(pi)
		tokC := b.img.Dev.SectionToken(p.layer, mcu.PhaseControl)
		tokK := b.img.Dev.SectionToken(p.layer, mcu.PhaseKernel)
		b.rt.AddPass(p.name, p.layer, ctl, tileCursorSlot, b.k, func(f *task.Fuse, d int) (task.ID, bool) {
			base := d * b.k
			end := min(base+b.k, p.n)
			to := self
			b.cursor[0] = int64(end)
			if end >= p.n {
				to, b.cursor[0] = next, 0 // reset for next pass
			}
			f.Section(tokC)
			f.Read(ctl, tileCursorSlot, 1)
			f.Section(tokK)
			for lo := base; lo < end; {
				n, bulk := p.chunk(f, lo, end)
				if !bulk && !f.Scalar(p.f, lo, lo+n) {
					return to, false
				}
				lo += n
			}
			f.Section(tokC)
			f.Write(ctl, tileCursorSlot, b.cursor[:])
			return to, true
		})
	}
	return parity, nil
}

// convPasses emits the zero-init (sparse only), accumulate, and finalize
// passes for a convolution. An accumulate iteration is one multiply-
// accumulate — "a[i] += b[i] × c" exactly as in the paper's Fig. 6 — on
// the task-shared partial buffer, so every iteration pays privatization.
func (b *tileBuilder) convPasses(addPass addPassFn,
	l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region) {
	q := l.Q
	ow := q.OutShape[2]
	positions := tl.Positions
	acc := b.img.AccA
	layer := tl.Name

	// Pre-decoded tables: per weight index the unpacked filter coordinates
	// folded into base offsets, per output position its row-major input
	// offset. First is indexed by walked element, which for the dense
	// layout (the only one that reads it here) is widx itself.
	wSrc, wAcc, wFirst, posTab := tl.WSrc, tl.WAccBase, tl.First, tl.PosOff

	// apply performs one MAC: filter element `e` at output position `i`.
	apply := func(c *task.Ctx, e, i int) {
		dev := c.Dev()
		widx := e
		if l.NZ != nil {
			widx = int(dev.Load(l.NZ, e))
		}
		first := l.NZ == nil && wFirst[widx]
		wv := fixed.Q15(dev.Load(l.W, widx))
		x := fixed.Q15(dev.Load(src, int(wSrc[widx])+int(posTab[i])))
		dev.Op(mcu.OpFixedMul)
		pos := int(wAcc[widx]) + i
		var a fixed.Acc
		if !first {
			a = fixed.Acc(c.Read(acc, pos))
			dev.Op(mcu.OpFixedAdd)
		}
		c.Write(acc, pos, int64(a.MAC(wv, x)))
	}

	if l.NZ != nil {
		b.zeroPass(addPass, "conv-zero", layer, q.F*positions)
	}

	// accIter is the scalar conv-acc body; accChunk is its bulk form,
	// chunked by walked element and output row so every charged range is
	// uniform in op kinds and contiguous in memory. A pruned layer's chunk
	// also charges n loads of the element's NZ word, and declines every
	// chunk per op; per op a dense chunk declines on partials an earlier
	// element of the same filter in the dispatch already wrote.
	accIter := func(c *task.Ctx, it int) {
		c.Dev().Op(mcu.OpBranch)
		apply(c, it/positions, it%positions)
	}
	vals := make([]int64, b.k)
	wKind := mcu.LoadOp(l.W)
	accChunk := func(f *task.Fuse, lo, hi int) (int, bool) {
		if l.NZ != nil && f.PerOp() {
			return hi - lo, false
		}
		e, i0, n := convChunk(lo, hi, positions, ow)
		widx := e
		if l.NZ != nil {
			widx = int(l.NZ.Get(e))
		}
		first := l.NZ == nil && wFirst[widx]
		pos0 := int(wAcc[widx]) + i0
		if f.PerOp() && (n < minBulk || !first && !f.Fresh(acc, pos0, n)) {
			return n, false
		}
		if !first {
			f.Read(acc, pos0, n)
		}
		f.Ops(mcu.OpBranch, n)
		if l.NZ != nil {
			f.Ops(mcu.LoadOp(l.NZ), n) // n loads of the same read-only NZ word
		}
		// n loads of the same read-only weight word, bulk-charged;
		// per-word shadow records only matter for words that are
		// later written, which deployed weights never are.
		f.Ops(wKind, n)
		srcStart := int(wSrc[widx]) + int(posTab[i0])
		f.Load(src, srcStart, n)
		f.Ops(mcu.OpFixedMul, n)
		if !first {
			f.Ops(mcu.OpFixedAdd, n)
		}
		if !f.Planning() {
			wv := int64(fixed.Q15(l.W.Get(widx)))
			if first {
				kern.MulRow(vals, src.ROWords(), srcStart, n, wv)
			} else {
				kern.MACRow(vals, acc.ROWords(), src.ROWords(), pos0, srcStart, n, wv)
			}
		}
		f.Write(acc, pos0, vals[:n])
		return n, true
	}
	addPass("conv-acc", layer, tl.Elems*positions, accIter, accChunk)

	finIter := func(c *task.Ctx, i int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		f := i / positions
		bq := fixed.Q15(dev.Load(l.B, f))
		a := fixed.Acc(c.Read(acc, i))
		dev.Op(mcu.OpFixedAdd)
		c.Write(dst, i, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	finVals := make([]int64, b.k)
	bKind := mcu.LoadOp(l.B)
	addPass("conv-fin", layer, q.F*positions, finIter, func(f *task.Fuse, lo, hi int) (int, bool) {
		n := min(hi-lo, positions-lo%positions) // one filter: a single bias word
		if n < minBulk && f.PerOp() {
			return n, false
		}
		f.Ops(mcu.OpBranch, n)
		f.Ops(bKind, n) // n loads of the same read-only bias word
		f.Read(acc, lo, n)
		f.Ops(mcu.OpFixedAdd, n)
		if !f.Planning() {
			bq := int64(fixed.Q15(l.B.Get(lo / positions)))
			kern.FinalizeConst(finVals, acc.ROWords(), bq, 0, lo, n, q.Shift)
		}
		f.Write(dst, lo, finVals[:n])
		return n, true
	})
}

// convChunk splits iterations [lo, hi) of a dense conv-acc pass over
// positions outputs per filter element, rows of ow, at the first
// filter-element or output-row boundary, so every chunk is uniform in op
// kinds and contiguous in memory. It returns the chunk's filter element,
// first output position and length.
func convChunk(lo, hi, positions, ow int) (e, i0, n int) {
	e, i0 = lo/positions, lo%positions
	n = hi - lo
	if m := positions - i0; m < n {
		n = m // one filter element
	}
	if m := ow - i0%ow; m < n {
		n = m // one output row: contiguous source loads
	}
	return e, i0, n
}

// densePasses emits the accumulate and finalize passes for a dense
// fully-connected layer; one iteration is one MAC on the task-shared
// partial of output o by input element i.
func (b *tileBuilder) densePasses(addPass addPassFn,
	l *core.LayerImage, layer string, src, dst *mem.Region) {
	q := l.Q
	acc := b.img.AccA
	accIter := func(c *task.Ctx, it int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		i, o := it/q.Out, it%q.Out
		x := fixed.Q15(dev.Load(src, i))
		wv := fixed.Q15(dev.Load(l.W, o*q.In+i))
		dev.Op(mcu.OpFixedMul)
		var a fixed.Acc
		if i > 0 {
			a = fixed.Acc(c.Read(acc, o))
			dev.Op(mcu.OpFixedAdd)
		}
		c.Write(acc, o, int64(a.MAC(wv, x)))
	}
	vals := make([]int64, b.k)
	wKind, srcKind := mcu.LoadOp(l.W), mcu.LoadOp(src)
	addPass("fc-acc", layer, q.In*q.Out, accIter, func(f *task.Fuse, lo, hi int) (int, bool) {
		i, o0 := lo/q.Out, lo%q.Out
		n := min(hi-lo, q.Out-o0) // one input element
		// Per op a chunk declines on partials an earlier input element of
		// the dispatch already wrote (q.Out below the tile size).
		if f.PerOp() && (n < minBulk || !f.Fresh(acc, o0, n)) {
			return n, false
		}
		f.Ops(mcu.OpBranch, n)
		f.Ops(srcKind, n) // n loads of the same input word
		f.Ops(wKind, n)   // n strided read-only weight loads
		f.Ops(mcu.OpFixedMul, n)
		if i > 0 {
			f.Read(acc, o0, n)
			f.Ops(mcu.OpFixedAdd, n)
		}
		if !f.Planning() {
			x := int64(fixed.Q15(src.Get(i)))
			if i > 0 {
				kern.DenseRow(vals, acc.ROWords(), l.W.ROWords(), o0, o0*q.In+i, q.In, n, x)
			} else {
				kern.DenseRowFirst(vals, l.W.ROWords(), o0*q.In+i, q.In, n, x)
			}
		}
		f.Write(acc, o0, vals[:n])
		return n, true
	})
	b.finPass(addPass, "fc-fin", l, layer, dst)
}

// zeroPass emits a pass clearing the first n task-shared partials.
func (b *tileBuilder) zeroPass(addPass addPassFn, name, layer string, n int) {
	acc := b.img.AccA
	zeroIter := func(c *task.Ctx, i int) {
		c.Dev().Op(mcu.OpBranch)
		c.Write(acc, i, 0)
	}
	zeros := make([]int64, b.k)
	addPass(name, layer, n, zeroIter, func(f *task.Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if n < minBulk && f.PerOp() {
			return n, false
		}
		f.Ops(mcu.OpBranch, n)
		f.Write(acc, lo, zeros[:n])
		return n, true
	})
}

// finPass emits the finalize pass of a fully-connected layer, dense or
// sparse: output o is its partial plus bias o, shifted and saturated.
func (b *tileBuilder) finPass(addPass addPassFn, name string,
	l *core.LayerImage, layer string, dst *mem.Region) {
	q := l.Q
	acc := b.img.AccA
	finIter := func(c *task.Ctx, o int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		bq := fixed.Q15(dev.Load(l.B, o))
		a := fixed.Acc(c.Read(acc, o))
		dev.Op(mcu.OpFixedAdd)
		c.Write(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	finVals := make([]int64, b.k)
	addPass(name, layer, q.Out, finIter, func(f *task.Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if n < minBulk && f.PerOp() {
			return n, false
		}
		f.Ops(mcu.OpBranch, n)
		f.Load(l.B, lo, n)
		f.Read(acc, lo, n)
		f.Ops(mcu.OpFixedAdd, n)
		if !f.Planning() {
			kern.FinalizeVec(finVals, acc.ROWords(), l.B.ROWords(), 0, lo, n, q.Shift)
		}
		f.Write(dst, lo, finVals[:n])
		return n, true
	})
}

// sparsePasses emits zero-init, per-nonzero accumulate, and finalize passes
// for a sparse fully-connected layer. Each nonzero update reads and writes
// its row's partial — the WAR pattern that forces redo-logging here and
// that SONIC's sparse undo-logging replaces.
func (b *tileBuilder) sparsePasses(addPass addPassFn,
	l *core.LayerImage, layer string, src, dst *mem.Region) {
	q := l.Q
	acc := b.img.AccA
	b.zeroPass(addPass, "spfc-zero", layer, q.Out)
	// Row lookup per nonzero: the device walks RowPtr lazily by keeping a
	// "current row" volatile variable... but volatile state cannot span
	// tasks, so each iteration binary-searches RowPtr. This is what a real
	// port pays for splitting a CSR walk across tasks.
	accIter := func(c *task.Ctx, p int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		row := sparseRowOf(dev, l, p, q.Out)
		wv := fixed.Q15(dev.Load(l.W, p))
		col := int(dev.Load(l.Cols, p))
		x := fixed.Q15(dev.Load(src, col))
		dev.Op(mcu.OpFixedMul)
		a := fixed.Acc(c.Read(acc, row))
		dev.Op(mcu.OpFixedAdd)
		c.Write(acc, row, int64(a.MAC(wv, x)))
	}
	// The chunk body walks whole row segments — the owning row and its end
	// come from a host-side RowPtr search, free of simulated charge like
	// every other chunk's index math: one Accumulate per segment
	// replaces that row's read-modify-write chain through the redo log,
	// and the probe loop is charged from its host-counted step count. The
	// op multiset per iteration is identical to the scalar body's.
	rowPtr := q.RowPtr
	rowPtrKind := mcu.LoadOp(l.RowPtr)
	wKind, colsKind, srcKind := mcu.LoadOp(l.W), mcu.LoadOp(l.Cols), mcu.LoadOp(src)
	addPass("spfc-acc", layer, len(q.W), accIter, func(f *task.Fuse, lo, hi int) (int, bool) {
		row := hostRowOf(rowPtr, lo)
		n := min(hi-lo, int(rowPtr[row+1])-lo) // this row's nonzeros within the tile
		if n < minBulk && f.PerOp() {
			return n, false
		}
		s := searchSteps(q.Out, row)
		f.Ops(mcu.OpBranch, n*(1+s))
		f.Ops(rowPtrKind, n*s)
		f.Ops(wKind, n)
		f.Ops(colsKind, n)
		f.Ops(srcKind, n)
		f.Ops(mcu.OpFixedMul, n)
		f.Ops(mcu.OpFixedAdd, n)
		var a int64
		if !f.Planning() {
			a = acc.Get(row) + kern.CSRRowSum(l.W.ROWords(), l.Cols.ROWords(), src.ROWords(), lo, n)
		}
		f.Accumulate(acc, row, n, a)
		return n, true
	})
	b.finPass(addPass, "spfc-fin", l, layer, dst)
}

// hostRowOf returns the row owning nonzero p — sparseRowOf's answer,
// derived host-side from the quantized RowPtr without simulated loads.
func hostRowOf(rowPtr []int32, p int) int {
	lo, hi := 0, len(rowPtr)-1
	for lo+1 < hi {
		if mid := (lo + hi) / 2; int(rowPtr[mid]) <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// searchSteps returns the number of probe iterations sparseRowOf performs
// for any nonzero in the given row: each probe compares a row boundary
// RowPtr[mid] against a key strictly inside the row, so the comparison —
// and with it the whole probe path — is the same for every key the row
// owns, and can be counted host-side without loading RowPtr.
func searchSteps(rows, row int) int {
	lo, hi, s := 0, rows, 0
	for lo+1 < hi {
		s++
		if mid := (lo + hi) / 2; mid <= row {
			lo = mid
		} else {
			hi = mid
		}
	}
	return s
}

// sparseRowOf binary-searches RowPtr for the row containing nonzero p.
func sparseRowOf(dev *mcu.Device, l *core.LayerImage, p, rows int) int {
	lo, hi := 0, rows // invariant: RowPtr[lo] <= p < RowPtr[hi]
	for lo+1 < hi {
		dev.Op(mcu.OpBranch)
		mid := (lo + hi) / 2
		if dev.Load(l.RowPtr, mid) <= int64(p) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// poolPass emits the pooling pass: one output element per iteration, with
// each window's origin read from the program's PoolBase table. Its bulk
// form charges, per output, window² branches and window² source loads and
// one fresh write; per op it declines every chunk.
func (b *tileBuilder) poolPass(addPass addPassFn,
	q *dnn.QuantLayer, tl *tape.Layer, src, dst *mem.Region) {
	w := q.InShape[2]
	poolBase := tl.PoolBase
	win2 := q.Window * q.Window
	srcKind := mcu.LoadOp(src)
	vals := make([]int64, b.k)
	addPass("pool", tl.Name, len(poolBase), func(c *task.Ctx, i int) {
		dev := c.Dev()
		origin := int(poolBase[i])
		best := fixed.MinusOne
		for ky := 0; ky < q.Window; ky++ {
			rowStart := origin + ky*w
			for kx := 0; kx < q.Window; kx++ {
				dev.Op(mcu.OpBranch)
				v := fixed.Q15(dev.Load(src, rowStart+kx))
				best = fixed.Max(best, v)
			}
		}
		c.Write(dst, i, int64(best))
	}, func(f *task.Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if f.PerOp() {
			return n, false
		}
		f.Ops(mcu.OpBranch, n*win2)
		f.Ops(srcKind, n*win2)
		if !f.Planning() {
			kern.MaxPool(vals, src.ROWords(), poolBase[lo:hi], q.Window, w, 0, n)
		}
		f.Write(dst, lo, vals[:n])
		return n, true
	})
}
