package task

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// scaleChunk returns the one bulk body of a pass mapping dst[i] =
// 2*src[i]+1, in the shape of a tile pass's chunk: it takes all of
// [lo, hi) as one chunk, declines it — before any charge — when it is
// shorter than minChunk or some dst word is privatized, and otherwise
// charges it through f. scalar is the matching per-iteration body.
func scaleChunk(src, dst *mem.Region, per int) (chunk func(f *Fuse, lo, hi int) (int, bool), scalar func(c *Ctx, i int)) {
	const minChunk = 4
	vals := make([]int64, per)
	chunk = func(f *Fuse, lo, hi int) (int, bool) {
		n := hi - lo
		if n < minChunk || !f.Fresh(dst, lo, n) {
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

// scaleProgram builds a two-pass program behind a cursor in ctl, per
// words per dispatch — the shape of a tile layer. The first pass runs
// scaleChunk over n words; every third dispatch first writes a
// placeholder to its first word, so its chunk re-writes a privatized word,
// and with per = 8 the last dispatch is a short chunk. The second pass,
// out[i] = src[i]+dst[i], has no bulk form, the shape of the tile pool
// pass: its chunk always declines. Each pass has one body: per op a
// declined chunk runs the scalar body, and a planned dispatch with one
// does not fuse. It returns the runtime, the regions whose final words the
// program leaves behind, and the no-bulk pass's ID.
func scaleProgram(t *testing.T, dev *mcu.Device, n, per int) (*Runtime, []*mem.Region, ID) {
	t.Helper()
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := dev.FRAM.MustAlloc("src", n, 2)
	dst := dev.FRAM.MustAlloc("dst", n, 2)
	out := dev.FRAM.MustAlloc("out", n, 2)
	ctl := dev.FRAM.MustAlloc("ctl", 1, 2)
	for i := 0; i < n; i++ {
		src.Put(i, int64(i*7%13))
	}
	rt.Share(dst)
	rt.Share(out)
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
		return rt.AddPass(name, name, ctl, 0, per, func(f *Fuse, d int) (ID, bool) {
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
			if m, bulk := body(f, base, end); !bulk && !f.Scalar(scalar, base, base+m) {
				return to, false
			}
			f.Section(tokC)
			return to, f.Write(ctl, 0, cursor)
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
	noBulk := pass("sum", Done, func(*Fuse, int) {}, func(_ *Fuse, lo, hi int) (int, bool) { return hi - lo, false }, sum)
	return rt, []*mem.Region{src, dst, out, ctl, rt.state, rt.log}, noBulk
}

// TestFusedTasksMatchPerOp is the task runtime's own fused-vs-reference
// oracle: under continuous power and a capacitor small enough to brown
// out every few tasks, a run whose fusable dispatches are funded and
// applied as whole tasks must actually fuse and must leave exactly the
// energy.PerOp run's Stats (op counts, per-section maps, cycles, energy,
// MaxRegionOps, reboots) and final FRAM — home words of both passes,
// cursor, control state, and the redo log with its dead entries. The pass
// with no bulk form must fuse none of its dispatches.
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
				rt, regions, noBulk := scaleProgram(t, dev, 90, per)
				rt.Start(0)
				if err := rt.Run(); err != nil {
					t.Fatalf("%s/per=%d: %v", pw.name, per, err)
				}
				var words [][]int64
				for _, r := range regions {
					words = append(words, append([]int64(nil), r.ROWords()...))
				}
				return dev, words, rt, noBulk
			}
			fused, fw, frt, noBulk := run(pw.mk())
			scalar, sw, _, _ := run(energy.PerOp{S: pw.mk()})
			fs, ss := fused.Stats(), scalar.Stats()
			if fused.FusedOps() == 0 {
				t.Errorf("%s/per=%d: nothing fused", pw.name, per)
			}
			if frt.plan == nil || len(frt.plan.tasks[noBulk]) != (90+per-1)/per {
				t.Errorf("%s/per=%d: no-bulk pass was not planned over its %d dispatches", pw.name, per, (90+per-1)/per)
			} else {
				for d, dp := range frt.plan.tasks[noBulk] {
					if dp.prof >= 0 {
						t.Errorf("%s/per=%d: no-bulk pass fuses dispatch %d", pw.name, per, d)
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
	rt.AddPass("probe", "probe", ctl, 0, 1, func(f *Fuse, d int) (ID, bool) {
		probe(f, "short", 0, 3, false)
		f.Scalar(func(c *Ctx, i int) { c.Write(dst, i, 7) }, 9, 10) // privatize dst[9]
		probe(f, "privatized", 8, 12, false)
		probe(f, "bulk", 0, 8, true)
		return Done, false
	})
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
