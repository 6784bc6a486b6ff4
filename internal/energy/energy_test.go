package energy

import (
	"math"
	"testing"
	"testing/quick"
)

// consume charges one op of e nanojoules through the one System entry
// point and reports whether it was funded.
func consume(s System, e float64) bool { return s.ConsumeN(PicojoulesOf(e), 1) == 1 }

func TestCapacitorUsableEnergy(t *testing.T) {
	// 100 uF between 1.88 V and 1.8 V: 0.5 * 1e-4 * (3.5344 - 3.24) J.
	got := Cap100uF.UsableNJ()
	want := 0.5 * 1e-4 * (1.88*1.88 - 1.8*1.8) * 1e9
	if math.Abs(got-want) > 1 {
		t.Errorf("UsableNJ = %v, want %v", got, want)
	}
	// Larger caps buffer proportionally more.
	if r := Cap1mF.UsableNJ() / Cap100uF.UsableNJ(); math.Abs(r-10) > 1e-9 {
		t.Errorf("1mF/100uF = %v, want 10", r)
	}
}

func TestContinuousNeverFails(t *testing.T) {
	var c Continuous
	for i := 0; i < 1000; i++ {
		if !consume(c, 1e12) {
			t.Fatal("continuous power must never fail")
		}
	}
	if c.Recharge() != 0 {
		t.Error("continuous recharge should be free")
	}
}

func TestIntermittentFailsWhenDrained(t *testing.T) {
	p := NewIntermittent(Cap100uF, ConstantHarvester{Watts: DefaultRFWatts})
	budget := p.BufferEnergy()
	n := 0
	for consume(p, 100) { // 100 nJ ops
		n++
		if n > 10_000_000 {
			t.Fatal("never failed")
		}
	}
	want := int(budget / 100)
	if n < want-1 || n > want+1 {
		t.Errorf("ops before failure = %d, want ~%d", n, want)
	}
}

func TestIntermittentRechargeTime(t *testing.T) {
	p := NewIntermittent(Cap100uF, ConstantHarvester{Watts: 1e-3}) // 1 mW
	for consume(p, 1000) {
	}
	dead := p.Recharge()
	// Refill ~450.5 uJ at 1 mW -> ~0.45 s.
	want := Cap100uF.UsableNJ() * 1e-9 / 1e-3
	if math.Abs(dead-want) > 0.01 {
		t.Errorf("recharge time = %v, want ~%v", dead, want)
	}
	// After recharge, the buffer is full again.
	if !consume(p, p.BufferEnergy()-1) {
		t.Error("buffer should be full after recharge")
	}
}

func TestIntermittentPartialRecharge(t *testing.T) {
	p := NewIntermittent(Cap1mF, ConstantHarvester{Watts: 1e-3})
	// Drain only half, then recharge: dead time should be ~half of full.
	half := p.BufferEnergy() / 2
	if !consume(p, half) {
		t.Fatal("half drain should succeed")
	}
	dead := p.Recharge()
	full := p.BufferEnergy() * 1e-9 / 1e-3
	if math.Abs(dead-full/2) > full*0.02 {
		t.Errorf("partial recharge = %v, want ~%v", dead, full/2)
	}
}

// Property: total consumed energy before failure never exceeds the buffer.
// The bound is checked in the integer picojoules the capacitor accounts
// in: BufferEnergy() is a float nJ figure whose last bits can sit below
// the pJ-quantized capacity (e.g. 14719.999999999978 vs 14720000 pJ),
// which is representation error, not an overdraft.
func TestBufferBoundProperty(t *testing.T) {
	f := func(opCost uint16) bool {
		cost := float64(opCost%5000) + 1
		p := NewIntermittent(Cap100uF, ConstantHarvester{Watts: 1e-3})
		total := 0.0
		for consume(p, cost) {
			total += cost
		}
		return pjOf(total) <= pjOf(p.BufferEnergy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStochasticHarvesterStatistics(t *testing.T) {
	h := NewStochasticHarvester(3e-3, 0.3, 1)
	sum := 0.0
	n := 5000
	for i := 0; i < n; i++ {
		p := h.PowerW()
		if p <= 0 {
			t.Fatal("power must be positive")
		}
		sum += p
	}
	mean := sum / float64(n)
	if mean < 2.5e-3 || mean > 3.5e-3 {
		t.Errorf("mean power = %v, want ~3e-3", mean)
	}
}

func TestSolarHarvesterBounds(t *testing.T) {
	h := NewSolarHarvester(10e-3, 2)
	for i := 0; i < 1000; i++ {
		p := h.PowerW()
		if p <= 0 || p > 10e-3 {
			t.Fatalf("solar power out of range: %v", p)
		}
	}
}

func TestFailAfterOpsSchedule(t *testing.T) {
	f := NewFailAfterOps(3, 2)
	// First window: ops 1,2 succeed, op 3 fails.
	if !consume(f, 0) || !consume(f, 0) {
		t.Fatal("first two ops should succeed")
	}
	if consume(f, 0) {
		t.Fatal("third op should fail")
	}
	if f.Recharge() != 0 {
		t.Error("fault injection has zero dead time")
	}
	// Next windows: every 2 ops.
	if !consume(f, 0) {
		t.Fatal("op after recharge should succeed")
	}
	if consume(f, 0) {
		t.Fatal("second op should fail (period 2)")
	}
}

func TestFailAfterOpsZeroPeriodBecomesContinuous(t *testing.T) {
	f := NewFailAfterOps(1, 0)
	if consume(f, 0) {
		t.Fatal("should fail on first op")
	}
	f.Recharge()
	for i := 0; i < 100; i++ {
		if !consume(f, 0) {
			t.Fatal("period 0 should never fail again")
		}
	}
}

func TestResets(t *testing.T) {
	p := NewIntermittent(Cap100uF, ConstantHarvester{Watts: 1e-3})
	for consume(p, 1e5) {
	}
	p.Reset()
	if !consume(p, p.BufferEnergy()/2) {
		t.Error("reset should refill")
	}
}

func TestTraceHarvester(t *testing.T) {
	h, err := NewTraceHarvester([]float64{1e-3, 2e-3, 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{h.PowerW(), h.PowerW(), h.PowerW(), h.PowerW()}
	want := []float64{1e-3, 2e-3, 3e-3, 1e-3} // cycles
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := NewTraceHarvester(nil); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := NewTraceHarvester([]float64{1e-3, 0}); err == nil {
		t.Error("non-positive sample should error")
	}
}

func TestFailScheduleBoundaries(t *testing.T) {
	f := NewFailSchedule([]int{3, 2})
	// Cycle 0: ops 1,2 succeed, op 3 fails.
	for i := 0; i < 2; i++ {
		if !consume(f, 1) {
			t.Fatalf("cycle 0 op %d failed early", i+1)
		}
	}
	if consume(f, 1) {
		t.Fatal("cycle 0 did not fail at gap 3")
	}
	if d := f.Recharge(); d != 0 {
		t.Fatalf("fault-injection recharge took %v dead seconds", d)
	}
	// Cycle 1: op 1 succeeds, op 2 fails.
	if !consume(f, 1) {
		t.Fatal("cycle 1 op 1 failed early")
	}
	if consume(f, 1) {
		t.Fatal("cycle 1 did not fail at gap 2")
	}
	f.Recharge()
	// Schedule exhausted: continuous from here on.
	for i := 0; i < 1000; i++ {
		if !consume(f, 1) {
			t.Fatal("exhausted schedule failed")
		}
	}
}

func TestFailScheduleClampsNonPositiveGaps(t *testing.T) {
	f := NewFailSchedule([]int{0})
	if consume(f, 1) {
		t.Fatal("gap 0 must clamp to 1 and fail the first op")
	}
}

func TestObservedHarvestWConstant(t *testing.T) {
	p := NewIntermittent(Cap100uF, ConstantHarvester{Watts: DefaultRFWatts})
	if w := p.ObservedHarvestW(); w != 0 {
		t.Fatalf("ObservedHarvestW before any recharge = %v, want 0", w)
	}
	consume(p, p.Cap.UsableNJ()+1) // drain past empty
	p.Recharge()
	if w := p.ObservedHarvestW(); math.Abs(w-DefaultRFWatts) > 1e-12 {
		t.Fatalf("observed %v W, want the constant %v W", w, DefaultRFWatts)
	}
	p.Reset()
	if w := p.ObservedHarvestW(); w != 0 {
		t.Fatalf("Reset kept harvest observations (%v W)", w)
	}
}

func TestObservedHarvestWVariable(t *testing.T) {
	trace, err := NewTraceHarvester([]float64{1e-3, 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	p := NewIntermittent(Cap100uF, trace)
	e := p.Cap.UsableNJ()
	for i := 0; i < 2; i++ {
		consume(p, e+1)
		p.Recharge()
	}
	// Mean power is energy-weighted: 2E harvested over E*1e-9*(1/1e-3+1/3e-3)
	// seconds = 1.5e-3 W, not the arithmetic mean 2e-3.
	want := 2.0 / (1/1e-3 + 1/3e-3)
	if w := p.ObservedHarvestW(); math.Abs(w-want)/want > 1e-9 {
		t.Fatalf("observed %v W, want %v W", w, want)
	}
}
