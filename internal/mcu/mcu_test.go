package mcu

import (
	"errors"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mem"
)

func TestOpAccounting(t *testing.T) {
	d := New(energy.Continuous{})
	d.SetSection("L", PhaseKernel)
	d.Op(OpAdd)
	d.Ops(OpMul, 3)
	st := d.Stats()
	if st.OpCount[OpAdd] != 1 || st.OpCount[OpMul] != 3 {
		t.Errorf("op counts wrong: %v %v", st.OpCount[OpAdd], st.OpCount[OpMul])
	}
	wantCycles := int64(d.Cost.Costs[OpAdd].Cycles) + 3*int64(d.Cost.Costs[OpMul].Cycles)
	if st.LiveCycles != wantCycles {
		t.Errorf("cycles = %d, want %d", st.LiveCycles, wantCycles)
	}
	wantE := d.Cost.Costs[OpAdd].EnergyNJ + 3*d.Cost.Costs[OpMul].EnergyNJ
	if math.Abs(st.EnergyNJ()-wantE) > 1e-9 {
		t.Errorf("energy = %v, want %v", st.EnergyNJ(), wantE)
	}
	sec := st.Sections[Section{Layer: "L", Phase: PhaseKernel}]
	if sec == nil || sec.OpCount[OpMul] != 3 {
		t.Errorf("section accounting missing")
	}
}

func TestLoadStoreChargesByMemoryKind(t *testing.T) {
	d := New(energy.Continuous{})
	rf := d.FRAM.MustAlloc("f", 4, 2)
	rs := d.SRAM.MustAlloc("s", 4, 2)
	d.Store(rf, 0, 5)
	d.Store(rs, 0, 6)
	if d.Load(rf, 0) != 5 || d.Load(rs, 0) != 6 {
		t.Fatal("load/store values wrong")
	}
	st := d.Stats()
	if st.OpCount[OpStoreFRAM] != 1 || st.OpCount[OpStoreSRAM] != 1 ||
		st.OpCount[OpLoadFRAM] != 1 || st.OpCount[OpLoadSRAM] != 1 {
		t.Errorf("memory op attribution wrong: %v", st.OpCount)
	}
}

func TestPowerFailureAbortsStore(t *testing.T) {
	// Fail on the 3rd op: the store must NOT take effect.
	d := New(energy.NewFailAfterOps(3, 1000))
	r := d.FRAM.MustAlloc("r", 2, 2)
	completed := d.Attempt(func() {
		d.Op(OpAdd)
		d.Op(OpAdd)
		d.Store(r, 0, 42) // third op: fails
	})
	if completed {
		t.Fatal("attempt should have failed")
	}
	if r.Get(0) != 0 {
		t.Error("failed store must not take effect")
	}
}

func TestRebootClearsSRAMOnly(t *testing.T) {
	d := New(energy.NewFailAfterOps(2, 100))
	rf := d.FRAM.MustAlloc("f", 1, 2)
	rs := d.SRAM.MustAlloc("s", 1, 2)
	d.Attempt(func() {
		d.Store(rf, 0, 7)
		d.Store(rs, 0, 8) // fails here? op 2 -> fails, store lost
	})
	// First store succeeded, second failed.
	d.Reboot()
	if rf.Get(0) != 7 {
		t.Error("FRAM lost data across reboot")
	}
	if rs.Get(0) != 0 {
		t.Error("SRAM should clear on reboot")
	}
	if d.Stats().Reboots != 1 {
		t.Errorf("reboots = %d", d.Stats().Reboots)
	}
}

func TestRunRetriesToCompletion(t *testing.T) {
	// Program: increment a FRAM counter to 10, restart-safe.
	d := New(energy.NewFailAfterOps(7, 7))
	r := d.FRAM.MustAlloc("counter", 1, 2)
	err := d.Run(func() {
		for d.Load(r, 0) < 10 {
			v := d.Load(r, 0)
			d.Store(r, 0, v+1)
			d.Progress()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Get(0) != 10 {
		t.Errorf("counter = %d, want 10", r.Get(0))
	}
	if d.Stats().Reboots == 0 {
		t.Error("expected at least one reboot")
	}
}

func TestRunDetectsNonTermination(t *testing.T) {
	// A task needing 100 ops with a 10-op budget and no progress marks.
	d := New(energy.NewFailAfterOps(10, 10))
	err := d.Run(func() {
		for i := 0; i < 100; i++ {
			d.Op(OpAdd)
		}
	})
	if !errors.Is(err, ErrDoesNotComplete) {
		t.Errorf("err = %v, want ErrDoesNotComplete", err)
	}
}

func TestProgressSuppressesNonTermination(t *testing.T) {
	// Same budget, but the program checkpoints its loop index in FRAM —
	// like SONIC — so it completes.
	d := New(energy.NewFailAfterOps(10, 10))
	idx := d.FRAM.MustAlloc("i", 1, 2)
	err := d.Run(func() {
		for d.Load(idx, 0) < 100 {
			i := d.Load(idx, 0)
			d.Op(OpAdd)
			d.Store(idx, 0, i+1)
			d.Progress()
		}
	})
	if err != nil {
		t.Fatalf("loop-continuation-style program should complete: %v", err)
	}
}

func TestAttemptPropagatesRealPanics(t *testing.T) {
	d := New(energy.Continuous{})
	defer func() {
		if recover() == nil {
			t.Error("non-power panics must propagate")
		}
	}()
	d.Attempt(func() { panic("bug") })
}

func TestNestedAttemptPanics(t *testing.T) {
	d := New(energy.Continuous{})
	defer func() {
		if recover() == nil {
			t.Error("nested Attempt should panic")
		}
	}()
	d.Attempt(func() {
		d.Attempt(func() {})
	})
}

func TestDeadTimeAccounting(t *testing.T) {
	p := energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
	d := New(p)
	// Allocation is deploy-time work: it must happen once, outside the
	// intermittently-retried program, or its state resets on every reboot.
	r := d.FRAM.MustAlloc("x", 1, 2)
	err := d.Run(func() {
		for d.Load(r, 0) < 200_000 {
			v := d.Load(r, 0)
			d.Store(r, 0, v+1)
			d.Progress()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Reboots < 2 {
		t.Errorf("expected several reboots, got %d", st.Reboots)
	}
	if st.DeadSeconds <= 0 {
		t.Error("dead time should accumulate")
	}
	if st.TotalSeconds(d.Cost.ClockHz) <= st.LiveSeconds(d.Cost.ClockHz) {
		t.Error("total time should include dead time")
	}
}

func TestDMACopies(t *testing.T) {
	d := New(energy.Continuous{})
	src := d.FRAM.MustAlloc("src", 8, 2)
	dst := d.SRAM.MustAlloc("dst", 8, 2)
	for i := 0; i < 8; i++ {
		src.Put(i, int64(i*i))
	}
	d.DMA(dst, 0, src, 0, 8)
	for i := 0; i < 8; i++ {
		if dst.Get(i) != int64(i*i) {
			t.Fatalf("dst[%d] = %d", i, dst.Get(i))
		}
	}
	if d.Stats().OpCount[OpDMASetup] != 1 || d.Stats().OpCount[OpDMAWord] != 8 {
		t.Error("DMA op accounting wrong")
	}
}

func TestDMAPartialOnPowerFailure(t *testing.T) {
	// Power fails on the 4th op (setup + word + word + failing word):
	// exactly 2 words must land.
	d := New(energy.NewFailAfterOps(4, 1000))
	src := d.FRAM.MustAlloc("src", 8, 2)
	dst := d.FRAM.MustAlloc("dst", 8, 2)
	for i := 0; i < 8; i++ {
		src.Put(i, 1)
	}
	if d.Attempt(func() { d.DMA(dst, 0, src, 0, 8) }) {
		t.Fatal("DMA should have been interrupted")
	}
	n := 0
	for i := 0; i < 8; i++ {
		if dst.Get(i) == 1 {
			n++
		}
	}
	if n != 2 {
		t.Errorf("partial DMA wrote %d words, want 2", n)
	}
}

func TestLEAMacV(t *testing.T) {
	d := New(energy.Continuous{})
	x := d.SRAM.MustAlloc("x", 4, 2)
	y := d.SRAM.MustAlloc("y", 4, 2)
	for i := 0; i < 4; i++ {
		x.Put(i, int64(fixed.FromFloat(0.5)))
		y.Put(i, int64(fixed.FromFloat(0.25)))
	}
	acc := d.LEAMacV(x, 0, y, 0, 4)
	if got := acc.Float(); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("dot = %v, want 0.5", got)
	}
	if d.Stats().OpCount[OpLEAInvoke] != 1 || d.Stats().OpCount[OpLEAElem] != 4 {
		t.Error("LEA op accounting wrong")
	}
}

func TestLEARejectsFRAMOperand(t *testing.T) {
	d := New(energy.Continuous{})
	x := d.FRAM.MustAlloc("x", 4, 2)
	y := d.SRAM.MustAlloc("y", 4, 2)
	defer func() {
		if recover() == nil {
			t.Error("LEA must reject FRAM operands")
		}
	}()
	d.LEAMacV(x, 0, y, 0, 4)
}

func TestLEAFIR(t *testing.T) {
	d := New(energy.Continuous{})
	in := d.SRAM.MustAlloc("in", 6, 2)
	coef := d.SRAM.MustAlloc("coef", 2, 2)
	out := d.SRAM.MustAlloc("out", 5, 2)
	// in = [1,2,3,4,5,6]/8, coef = [1,1]/8 -> out[i] = (in[i]+in[i+1])/64
	for i := 0; i < 6; i++ {
		in.Put(i, int64(fixed.FromFloat(float64(i+1)/8)))
	}
	coef.Put(0, int64(fixed.FromFloat(0.125)))
	coef.Put(1, int64(fixed.FromFloat(0.125)))
	d.LEAFIR(out, 0, in, 0, coef, 0, 2, 5)
	for i := 0; i < 5; i++ {
		want := (float64(i+1) + float64(i+2)) / 64
		got := fixed.Q15(out.Get(i)).Float()
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("fir[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestLEAFootprintEnforced(t *testing.T) {
	d := New(energy.Continuous{})
	big := mem.LEABufferBytes // twice the bank in words across x and y
	x := d.SRAM.MustAlloc("x", big/2, 2)
	y := d.SRAM.MustAlloc("y", big/2, 2)
	defer func() {
		if recover() == nil {
			t.Error("oversized LEA working set should panic")
		}
	}()
	d.LEAMacV(x, 0, y, 0, big/2)
}

func TestLEAAddV(t *testing.T) {
	d := New(energy.Continuous{})
	a := d.SRAM.MustAlloc("a", 3, 2)
	b := d.SRAM.MustAlloc("b", 3, 2)
	dst := d.SRAM.MustAlloc("dst", 3, 2)
	for i := 0; i < 3; i++ {
		a.Put(i, int64(fixed.FromFloat(0.3)))
		b.Put(i, int64(fixed.FromFloat(0.4)))
	}
	d.LEAAddV(dst, 0, a, 0, b, 0, 3)
	for i := 0; i < 3; i++ {
		if got := fixed.Q15(dst.Get(i)).Float(); math.Abs(got-0.7) > 1e-3 {
			t.Errorf("add[%d] = %v", i, got)
		}
	}
}

func TestSectionSwitching(t *testing.T) {
	d := New(energy.Continuous{})
	d.SetSection("conv1", PhaseKernel)
	d.Op(OpAdd)
	d.SetSection("conv1", PhaseControl)
	d.Op(OpAdd)
	d.SetSection("conv1", PhaseKernel) // back to existing section
	d.Op(OpAdd)
	k := d.Stats().Sections[Section{Layer: "conv1", Phase: PhaseKernel}]
	c := d.Stats().Sections[Section{Layer: "conv1", Phase: PhaseControl}]
	if k.OpCount[OpAdd] != 2 || c.OpCount[OpAdd] != 1 {
		t.Errorf("section split wrong: kernel %d control %d", k.OpCount[OpAdd], c.OpCount[OpAdd])
	}
	layer, phase := d.Section()
	if layer != "conv1" || phase != PhaseKernel {
		t.Errorf("Section() = %s/%s", layer, phase)
	}
}

func TestResetStats(t *testing.T) {
	d := New(energy.Continuous{})
	d.Op(OpAdd)
	d.ResetStats()
	if d.Stats().OpCount[OpAdd] != 0 || d.Stats().EnergyNJ() != 0 {
		t.Error("stats not cleared")
	}
	d.Op(OpAdd) // must not panic after reset
}

func BenchmarkOp(b *testing.B) {
	d := New(energy.Continuous{})
	for i := 0; i < b.N; i++ {
		d.Op(OpAdd)
	}
}

// TestCostModelRelations pins the cost relations the reproduction's results
// depend on (see DESIGN.md §4). If a recalibration breaks one of these,
// the evaluation shapes are no longer meaningful.
func TestCostModelRelations(t *testing.T) {
	c := DefaultCostModel().Costs
	if !(c[OpStoreFRAM].EnergyNJ >= 2.5*c[OpLoadFRAM].EnergyNJ) {
		t.Error("FRAM writes must cost ~3x FRAM reads")
	}
	if !(c[OpStoreFRAM].EnergyNJ >= 4*c[OpStoreSRAM].EnergyNJ) {
		t.Error("FRAM writes must cost >=4x SRAM writes")
	}
	if !(c[OpLEAElem].EnergyNJ < c[OpFixedMul].EnergyNJ/5) {
		t.Error("LEA per-element MAC must be far cheaper than software fixed multiply")
	}
	if !(c[OpDMAWord].EnergyNJ < c[OpLoadFRAM].EnergyNJ+c[OpStoreSRAM].EnergyNJ) {
		t.Error("DMA per word must beat a CPU load+store copy")
	}
	if !(c[OpDispatch].EnergyNJ > 10*c[OpTransition].EnergyNJ) {
		t.Error("Alpaca dispatch must dwarf SONIC's light transition")
	}
	if !(c[OpMul].Cycles >= 9) {
		t.Error("hardware multiplier is a 9-cycle peripheral (para 10)")
	}
}

func TestStoreIndexJITFeature(t *testing.T) {
	d := New(energy.Continuous{})
	r := d.FRAM.MustAlloc("idx", 1, 2)
	d.StoreIndex(r, 0, 7)
	if d.Stats().OpCount[OpStoreFRAM] != 1 {
		t.Error("without JIT, StoreIndex is an FRAM store")
	}
	d.JITIndexCheckpoint = true
	d.StoreIndex(r, 0, 9)
	if d.Stats().OpCount[OpStoreSRAM] != 1 {
		t.Error("with JIT, StoreIndex charges an SRAM store")
	}
	if r.Get(0) != 9 {
		t.Error("JIT StoreIndex must still persist the value")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpKind(0); k < NumOps; k++ {
		if k.String() == "?" || k.String() == "" {
			t.Errorf("op %d has no name", k)
		}
	}
	if NumOps.String() != "?" {
		t.Error("out-of-range op should stringify to ?")
	}
}
