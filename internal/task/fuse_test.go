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

// scaleProgram builds a one-task program that runs scaleChunk over n
// words, per words per dispatch, behind a cursor in ctl — the shape of a
// tile pass. Its per-op task and its fused form run the same chunk body:
// the task through Ctx.Bulk, falling back to the scalar body when the
// chunk declines, the fused form reporting a declined chunk as not
// fusable. Every third dispatch first writes a placeholder to its first
// word, so its chunk re-writes a privatized word; with per = 8 the last
// dispatch is a short chunk. It returns the runtime and the regions whose
// final words the program leaves behind.
func scaleProgram(t *testing.T, dev *mcu.Device, n, per int) (*Runtime, []*mem.Region) {
	t.Helper()
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := dev.FRAM.MustAlloc("src", n, 2)
	dst := dev.FRAM.MustAlloc("dst", n, 2)
	ctl := dev.FRAM.MustAlloc("ctl", 1, 2)
	for i := 0; i < n; i++ {
		src.Put(i, int64(i*7%13))
	}
	rt.Share(dst)
	rt.Share(ctl)
	tokC := dev.SectionToken("scale", mcu.PhaseControl)
	tokK := dev.SectionToken("scale", mcu.PhaseKernel)
	chunk, scalar := scaleChunk(src, dst, per)
	placeholder := []int64{-1}
	cursor := make([]int64, 1)
	var self ID
	self = rt.Add("scale", func(c *Ctx) ID {
		dev := c.Dev()
		dev.SetSectionTok(tokC)
		base := int(c.Read(ctl, 0))
		end := min(base+per, n)
		dev.SetSectionTok(tokK)
		if base/per%3 == 0 {
			c.Write(dst, base, placeholder[0])
		}
		if m, bulk := chunk(c.Bulk(), base, end); !bulk {
			for i := base; i < base+m; i++ {
				scalar(c, i)
			}
		}
		dev.SetSectionTok(tokC)
		if end >= n {
			c.Write(ctl, 0, 0)
			return Done
		}
		c.Write(ctl, 0, int64(end))
		return self
	})
	rt.SetFused(self, "scale", ctl, 0, per, func(f *Fuse, d int) (ID, bool) {
		base := d * per
		end := min(base+per, n)
		next := self
		cursor[0] = int64(end)
		if end >= n {
			next, cursor[0] = Done, 0
		}
		f.Section(tokC)
		f.Read(ctl, 0, 1)
		f.Section(tokK)
		if base/per%3 == 0 {
			f.Write(dst, base, placeholder)
		}
		if _, bulk := chunk(f, base, end); !bulk {
			return next, false
		}
		f.Section(tokC)
		return next, f.Write(ctl, 0, cursor)
	})
	return rt, []*mem.Region{src, dst, ctl, rt.state, rt.log}
}

// TestFusedTasksMatchPerOp is the task runtime's own fused-vs-reference
// oracle: under continuous power and a capacitor small enough to brown
// out every few tasks, a run whose fusable dispatches are funded and
// applied as whole tasks must actually fuse and must leave exactly the
// energy.PerOp run's Stats (op counts, per-section maps, cycles, energy,
// MaxRegionOps, reboots) and final FRAM — home words, cursor, control
// state, and the redo log with its dead entries.
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
			run := func(power energy.System) (*mcu.Device, [][]int64) {
				dev := mcu.New(power)
				rt, regions := scaleProgram(t, dev, 90, per)
				rt.Start(0)
				if err := rt.Run(); err != nil {
					t.Fatalf("%s/per=%d: %v", pw.name, per, err)
				}
				var words [][]int64
				for _, r := range regions {
					words = append(words, append([]int64(nil), r.ROWords()...))
				}
				return dev, words
			}
			fused, fw := run(pw.mk())
			scalar, sw := run(energy.PerOp{S: pw.mk()})
			fs, ss := fused.Stats(), scalar.Stats()
			if fused.FusedOps() == 0 {
				t.Errorf("%s/per=%d: nothing fused", pw.name, per)
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
// in the same task does charge, so the probe sees the device.
func TestDeclinedChunkChargesNothing(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	rt, err := New(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	src := dev.FRAM.MustAlloc("src", n, 2)
	dst := dev.FRAM.MustAlloc("dst", n, 2)
	for i := 0; i < n; i++ {
		src.Put(i, int64(i))
	}
	rt.Share(dst)
	chunk, _ := scaleChunk(src, dst, n)
	snapshot := func() (*mcu.Stats, [][]int64) {
		var words [][]int64
		for _, r := range []*mem.Region{src, dst, rt.state, rt.log} {
			words = append(words, append([]int64(nil), r.ROWords()...))
		}
		return dev.Stats(), words
	}
	probe := func(c *Ctx, name string, lo, hi int, wantBulk bool) {
		s0, w0 := snapshot()
		m, bulk := chunk(c.Bulk(), lo, hi)
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
	rt.Add("probe", func(c *Ctx) ID {
		probe(c, "short", 0, 3, false)
		c.Write(dst, 9, 7) // privatize dst[9]
		probe(c, "privatized", 8, 12, false)
		probe(c, "bulk", 0, 8, true)
		return Done
	})
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
