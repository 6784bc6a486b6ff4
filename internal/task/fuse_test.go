package task

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// scaleChunk returns the one bulk body of a pass mapping dst[i] =
// 2*src[i]+1, in the shape of a tile pass's chunk: it takes all of
// [lo, hi) as one chunk; per op it declines it — before any charge — when
// it is shorter than minChunk or some dst word is privatized, and
// otherwise charges it through f. scalar is the matching per-iteration
// body.
func scaleChunk(src, dst *mem.Region, per int) (chunk func(f *Fuse, lo, hi int) (int, bool), scalar func(c *Ctx, i int)) {
	const minChunk = 4
	vals := make([]int64, per)
	chunk = func(f *Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if f.PerOp() && (n < minChunk || !f.Fresh(dst, lo, n)) {
			return n, false
		}
		f.Ops(mcu.OpFixedMul, n)
		f.Load(src, lo, n)
		if !f.Planning() {
			for j := 0; j < n; j++ {
				vals[j] = 2*src.Get(lo+j) + 1
			}
		}
		f.Write(dst, lo, vals[:n])
		return n, true
	}
	scalar = func(c *Ctx, i int) {
		dev := c.Dev()
		dev.Op(mcu.OpFixedMul)
		c.Write(dst, i, 2*dev.Load(src, i)+1)
	}
	return chunk, scalar
}

// scaleProgram builds a three-pass program behind a cursor in ctl, per
// words per dispatch — the shape of a tile layer. The first pass runs
// scaleChunk over n words; every third dispatch first writes a
// placeholder to its first word, so its chunk re-writes a privatized word
// (fresh and privatized words in one range), and with per = 8 the last
// dispatch is a short chunk. The second pass, out[i] = src[i]+dst[i],
// runs sumChunk, which declines every chunk per op, as tile's pool pass
// and pruned conv-acc pass do. The third, rewriteChunk over acc, re-reads
// and re-writes words its dispatch already privatized and alternates long
// and short dispatches, so a funded train's later dispatch rewrites fewer
// log entries than an earlier one's in-place updates reach. Each pass has
// one body: per op a declined chunk runs the scalar body; planning and
// applying, every chunk takes its bulk form, so every dispatch fuses. It
// returns the runtime, the regions whose final words the program leaves
// behind, and the rewrite pass's ID.
func scaleProgram(t *testing.T, dev *mcu.Device, n, per int) (*Runtime, []*mem.Region, ID) {
	t.Helper()
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := dev.FRAM.MustAlloc("src", n, 2)
	dst := dev.FRAM.MustAlloc("dst", n, 2)
	out := dev.FRAM.MustAlloc("out", n, 2)
	acc := dev.FRAM.MustAlloc("acc", n, 2)
	ctl := dev.FRAM.MustAlloc("ctl", 1, 2)
	for i := 0; i < n; i++ {
		src.Put(i, int64(i*7%13))
	}
	rt.Share(dst)
	rt.Share(out)
	rt.Share(acc)
	rt.Share(ctl)
	chunk, scalar := scaleChunk(src, dst, per)
	placeholder := []int64{-1}
	cursor := make([]int64, 1)
	// pass registers a pass over the n words whose dispatches open with
	// pre and whose chunks run body, transitioning to next at the end.
	pass := func(name string, next ID, pre func(f *Fuse, base int), body func(f *Fuse, lo, hi int) (int, bool), scalar func(c *Ctx, i int)) ID {
		self := ID(len(rt.tasks))
		tokC := dev.SectionToken(name, mcu.PhaseControl)
		tokK := dev.SectionToken(name, mcu.PhaseKernel)
		return rt.AddPass(name, name, ctl, 0, per, func(f *Fuse, d int) ID {
			base := d * per
			end := min(base+per, n)
			to := self
			cursor[0] = int64(end)
			if end >= n {
				to, cursor[0] = next, 0
			}
			f.Section(tokC)
			f.Read(ctl, 0, 1)
			f.Section(tokK)
			pre(f, base)
			if m, bulk := body(f, base, end); !bulk {
				f.Scalar(scalar, base, base+m)
			}
			f.Section(tokC)
			f.Write(ctl, 0, cursor)
			return to
		})
	}
	pass("scale", 1, func(f *Fuse, base int) {
		if base/per%3 == 0 {
			f.Write(dst, base, placeholder)
		}
	}, chunk, scalar)
	sum := func(c *Ctx, i int) {
		dev := c.Dev()
		dev.Op(mcu.OpFixedAdd)
		c.Write(out, i, dev.Load(src, i)+c.Read(dst, i))
	}
	sumVals := make([]int64, per)
	sumChunk := func(f *Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if f.PerOp() {
			return n, false
		}
		f.Ops(mcu.OpFixedAdd, n)
		f.Load(src, lo, n)
		f.Read(dst, lo, n)
		if !f.Planning() {
			for j := 0; j < n; j++ {
				sumVals[j] = src.Get(lo+j) + dst.Get(lo+j)
			}
		}
		f.Write(out, lo, sumVals[:n])
		return n, true
	}
	pass("sum", 2, func(*Fuse, int) {}, sumChunk, sum)
	rewrite := pass("rewrite", Done, func(f *Fuse, base int) {
		if base/per%2 == 0 {
			f.Write(acc, base+1, placeholder)
		}
	}, rewriteChunk(src, acc, per), func(c *Ctx, i int) {
		dev := c.Dev()
		c.Write(acc, i, c.Read(acc, i)+dev.Load(src, i))
		dev.Op(mcu.OpFixedMul)
		c.Write(acc, i, 3*c.Read(acc, i)-1)
		if i%per == 0 {
			for range 3 {
				c.Write(acc, i, c.Read(acc, i)+1)
				dev.Op(mcu.OpFixedAdd)
			}
		}
	})
	return rt, []*mem.Region{src, dst, out, acc, ctl, rt.state, rt.log}, rewrite
}

// rewriteChunk returns the bulk body of a pass that accumulates
// acc[i] += src[i], rewrites acc[i] = 3*acc[i]-1, and then adds 1 to its
// first word three times (one Accumulate): the second read and write of
// every word, and the accumulation, hit words the dispatch already
// privatized. An even dispatch (its first word a multiple of 2*per) has privatized
// acc[lo+1] beforehand, so its first read and write mix fresh and
// privatized words, and covers its whole range; an odd one covers all but
// its last two words, so it logs fewer entries than an even one. Its
// second access re-touches the words its first wrote, which per op only
// the scalar body may do, so per op it declines every chunk.
func rewriteChunk(src, acc *mem.Region, per int) func(f *Fuse, lo, hi int) (int, bool) {
	vals := make([]int64, per)
	return func(f *Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if lo/per%2 == 1 {
			n = max(n-2, 1)
		}
		if f.PerOp() {
			return n, false
		}
		get := func(j int) int64 {
			if f.Planning() {
				return 0
			}
			return acc.Get(lo + j)
		}
		f.Read(acc, lo, n)
		f.Load(src, lo, n)
		for j := 0; j < n; j++ {
			vals[j] = get(j) + src.Get(lo+j)
		}
		f.Write(acc, lo, vals[:n])
		f.Read(acc, lo, n)
		f.Ops(mcu.OpFixedMul, n)
		for j := 0; j < n; j++ {
			vals[j] = 3*get(j) - 1
		}
		f.Write(acc, lo, vals[:n])
		f.Ops(mcu.OpFixedAdd, 3)
		f.Accumulate(acc, lo, 3, get(0)+3)
		return n, true
	}
}

// TestFusedTasksMatchPerOp is the task runtime's own fused-vs-reference
// oracle: under continuous power and a capacitor small enough to brown
// out every few tasks, a run whose dispatches are funded and applied as
// whole tasks must actually fuse and must leave exactly the energy.PerOp
// run's Stats (op counts, per-section maps, cycles, energy, MaxRegionOps,
// reboots) and final FRAM — home words of every pass, cursor, control
// state, and the raw redo log with its in-place updates and dead entries.
// Every dispatch of every pass — short chunks, privatized re-writes and
// the pass whose chunks all decline per op included — must plan a
// multiset, and the rewrite pass's must all split at write-set
// boundaries.
func TestFusedTasksMatchPerOp(t *testing.T) {
	powers := []struct {
		name string
		mk   func() energy.System
	}{
		{"cont", func() energy.System { return energy.Continuous{} }},
		{"30uF", func() energy.System {
			return energy.NewIntermittent(energy.CapBank(30e-6), energy.ConstantHarvester{Watts: 1e-3})
		}},
	}
	for _, pw := range powers {
		for _, per := range []int{5, 8, 13} {
			run := func(power energy.System) (*mcu.Device, [][]int64, *Runtime, ID) {
				dev := mcu.New(power)
				rt, regions, rewrite := scaleProgram(t, dev, 90, per)
				rt.Start(0)
				if err := rt.Run(); err != nil {
					t.Fatalf("%s/per=%d: %v", pw.name, per, err)
				}
				var words [][]int64
				for _, r := range regions {
					words = append(words, append([]int64(nil), r.ROWords()...))
				}
				return dev, words, rt, rewrite
			}
			fused, fw, frt, rewrite := run(pw.mk())
			scalar, sw, _, _ := run(energy.PerOp{S: pw.mk()})
			fs, ss := fused.Stats(), scalar.Stats()
			if fused.FusedOps() == 0 {
				t.Errorf("%s/per=%d: nothing fused", pw.name, per)
			}
			dispatches := (90 + per - 1) / per
			if frt.plan == nil || len(frt.plan.tasks) != 3 {
				t.Errorf("%s/per=%d: the three passes were not planned", pw.name, per)
			} else {
				for id, dps := range frt.plan.tasks {
					if len(dps) != dispatches {
						t.Errorf("%s/per=%d: task %d planned %d dispatches, want %d", pw.name, per, id, len(dps), dispatches)
					}
					for d, dp := range dps {
						if dp.prof < 0 || int(dp.prof) >= len(frt.plan.profs) || ID(id) == rewrite && !dp.split {
							t.Errorf("%s/per=%d: task %d dispatch %d: multiset %d of %d, splits %v",
								pw.name, per, id, d, dp.prof, len(frt.plan.profs), dp.split)
						}
					}
				}
			}
			if scalar.FusedOps() != 0 {
				t.Errorf("%s/per=%d: PerOp run fused %d ops", pw.name, per, scalar.FusedOps())
			}
			if !reflect.DeepEqual(fs, ss) {
				t.Errorf("%s/per=%d: Stats diverge:\n fused  %+v\n scalar %+v", pw.name, per, fs, ss)
			}
			if !reflect.DeepEqual(fw, sw) {
				t.Errorf("%s/per=%d: final FRAM diverges:\n fused  %v\n scalar %v", pw.name, per, fw, sw)
			}
			var total int64
			for _, c := range fs.OpCount {
				total += c
			}
			t.Logf("%s/per=%d: %d of %d ops fused, %d reboots", pw.name, per,
				fused.FusedOps(), total, fs.Reboots)
		}
	}
}

// TestDeclinedChunkChargesNothing pins the chunk contract on the per-op
// path: a chunk that declines the bulk path — because it is short, or
// because it would re-write a word the task already privatized — leaves
// the device's Stats and every FRAM word exactly as they were, so the
// scalar fallback that follows charges each iteration once. A bulk chunk
// in the same task does charge, so the probe sees the device. The probes
// run in a pass body on an energy.PerOp device, which never plans, so the
// body runs per op only.
func TestDeclinedChunkChargesNothing(t *testing.T) {
	dev := mcu.New(energy.PerOp{S: energy.Continuous{}})
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	src := dev.FRAM.MustAlloc("src", n, 2)
	dst := dev.FRAM.MustAlloc("dst", n, 2)
	ctl := dev.FRAM.MustAlloc("ctl", 1, 2)
	for i := 0; i < n; i++ {
		src.Put(i, int64(i))
	}
	rt.Share(dst)
	rt.Share(ctl)
	chunk, _ := scaleChunk(src, dst, n)
	snapshot := func() (*mcu.Stats, [][]int64) {
		var words [][]int64
		for _, r := range []*mem.Region{src, dst, rt.state, rt.log} {
			words = append(words, append([]int64(nil), r.ROWords()...))
		}
		return dev.Stats(), words
	}
	probe := func(f *Fuse, name string, lo, hi int, wantBulk bool) {
		s0, w0 := snapshot()
		m, bulk := chunk(f, lo, hi)
		s1, w1 := snapshot()
		switch {
		case m != hi-lo || bulk != wantBulk:
			t.Errorf("%s: chunk returned (%d, %v), want (%d, %v)", name, m, bulk, hi-lo, wantBulk)
		case !bulk && !reflect.DeepEqual(s0, s1):
			t.Errorf("%s: declined chunk charged:\n before %+v\n after  %+v", name, *s0, *s1)
		case !bulk && !reflect.DeepEqual(w0, w1):
			t.Errorf("%s: declined chunk wrote FRAM:\n before %v\n after  %v", name, w0, w1)
		case bulk && reflect.DeepEqual(s0, s1):
			t.Errorf("%s: bulk chunk charged nothing", name)
		}
	}
	rt.AddPass("probe", "probe", ctl, 0, 1, func(f *Fuse, d int) ID {
		probe(f, "short", 0, 3, false)
		f.Scalar(func(c *Ctx, i int) { c.Write(dst, i, 7) }, 9, 10) // privatize dst[9]
		probe(f, "privatized", 8, 12, false)
		probe(f, "bulk", 0, 8, true)
		return Done
	})
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkDeclinedOutsidePerOpPanics pins the other half of the chunk
// contract: a chunk declines the bulk path per op only, so a pass body
// that falls back to its scalar form while planning breaks the plan, and
// Fuse.Scalar must panic rather than plan a dispatch that charges nothing
// for the declined chunk. A device that may fuse compiles the plan on its
// first run, where the decline happens.
func TestChunkDeclinedOutsidePerOpPanics(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	src := dev.FRAM.MustAlloc("src", n, 2)
	dst := dev.FRAM.MustAlloc("dst", n, 2)
	ctl := dev.FRAM.MustAlloc("ctl", 1, 2)
	rt.Share(dst)
	rt.Share(ctl)
	_, scalar := scaleChunk(src, dst, n)
	rt.AddPass("decline", "decline", ctl, 0, n, func(f *Fuse, d int) ID {
		f.Scalar(scalar, 0, n) // declines in every mode
		return Done
	})
	rt.Start(0)
	defer func() {
		if r := recover(); r == nil {
			t.Error("a chunk declined while planning, and Fuse.Scalar did not panic")
		} else if s, _ := r.(string); !strings.Contains(s, "outside per op") {
			t.Errorf("panic %v, want Fuse.Scalar's outside-per-op panic", r)
		}
	}()
	rt.Run()
}
