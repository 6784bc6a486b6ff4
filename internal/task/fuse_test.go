package task

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// scaleProgram builds a one-task program that maps dst[i] = 2*src[i]+1
// over n words, per words per dispatch, behind a cursor in ctl — the shape
// of a tile pass. Its per-op body is all bulk (ReadRange/WriteRange)
// except in every third dispatch, which first writes a placeholder to its
// first word and so re-writes a privatized word. Its fused form mirrors
// the body and reports the re-writing dispatches as not fusable. It
// returns the runtime and the regions whose final words the program
// leaves behind.
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
	vals := make([]int64, per)
	cursor := make([]int64, 1)
	compute := func(base, m int) {
		for j := 0; j < m; j++ {
			vals[j] = 2*src.Get(base+j) + 1
		}
	}
	var self ID
	self = rt.Add("scale", func(c *Ctx) ID {
		dev := c.Dev()
		dev.SetSectionTok(tokC)
		base := int(c.Read(ctl, 0))
		end := min(base+per, n)
		dev.SetSectionTok(tokK)
		if base/per%3 == 0 {
			c.Write(dst, base, -1)
		}
		dev.Ops(mcu.OpFixedMul, end-base)
		dev.LoadRange(src, base, end-base)
		compute(base, end-base)
		if !c.WriteRange(dst, base, vals[:end-base]) {
			for j := base; j < end; j++ {
				c.Write(dst, j, vals[j-base])
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
	rt.SetFused(self, "scale", func(f *Fuse, j int) (ID, bool) {
		base := int(ctl.Get(0))
		if f.Planning() {
			base += j * per
		}
		end := min(base+per, n)
		if base/per%3 == 0 {
			return 0, false
		}
		f.Section(tokC)
		f.Read(ctl, 0, 1)
		f.Section(tokK)
		f.Ops(mcu.OpFixedMul, end-base)
		f.Ops(mcu.LoadOp(src), end-base)
		if !f.Planning() {
			compute(base, end-base)
		}
		if !f.Write(dst, base, vals[:end-base]) {
			return 0, false
		}
		f.Section(tokC)
		next := self
		cursor[0] = int64(end)
		if end >= n {
			next, cursor[0] = Done, 0
		}
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
