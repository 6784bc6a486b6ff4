package mcu

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/mem"
)

// TestOpsTotalMirrorsSectionCounts is the regression guard for the derived
// op accounting: the fast path maintains only per-section counts, and the
// opsTotal mirror (which journal records and WAR violation positions read)
// is resynced from them whenever a per-op observer attaches. At every
// observation point the invariant is
//
//	opsTotal == opsNow() == Σ_k Stats().OpCount[k]
//
// across scalar ops, fused ChargeTrain charges, section
// switches, and observer attach/detach.
func TestOpsTotalMirrorsSectionCounts(t *testing.T) {
	dev := New(energy.Continuous{})
	tokA := dev.SectionToken("a", PhaseKernel)
	tokB := dev.SectionToken("b", PhaseControl)

	check := func(label string, wantMirror bool) {
		t.Helper()
		var sum int64
		for _, n := range dev.Stats().OpCount {
			sum += n
		}
		if now := dev.opsNow(); now != sum {
			t.Fatalf("%s: opsNow()=%d, Σ Stats.OpCount=%d", label, now, sum)
		}
		if wantMirror && dev.opsTotal != sum {
			t.Fatalf("%s: opsTotal=%d, Σ Stats.OpCount=%d", label, dev.opsTotal, sum)
		}
	}

	// Fast path: scalar ops and bulk charges with no observer attached.
	dev.SetSectionTok(tokA)
	for i := 0; i < 7; i++ {
		dev.Op(OpFixedMul)
	}
	blk := dev.NewBlock(
		BlockOp{Tok: tokA, Kind: OpLoadFRAM, N: 2},
		BlockOp{Tok: tokB, Kind: OpStoreFRAM, N: 1})
	if m := dev.ChargeTrain([]TrainSeg{{Blk: blk, N: 5}}); m != 5 {
		t.Fatalf("one-segment ChargeTrain funded %d of 5", m)
	}
	blk2 := dev.NewBlock(BlockOp{Tok: tokB, Kind: OpBranch, N: 3})
	if n := dev.ChargeTrain([]TrainSeg{{Blk: blk, N: 2}, {Blk: blk2, N: 4}}); n != 6 {
		t.Fatalf("ChargeTrain funded %d of 6", n)
	}
	check("fast path", false)

	// Journal attach resyncs the mirror from the section counts; the slow
	// path then maintains it incrementally.
	dev.StartJournal(0)
	check("journal attach", true)
	dev.SetSectionTok(tokB)
	for i := 0; i < 11; i++ {
		dev.Op(OpBranch)
	}
	dev.account(OpLoadFRAM, 4)
	check("journal ops", true)
	dev.StopJournal()

	// Back on the fast path, then the WAR shadow attach resyncs again
	// (violation records carry op positions read from the mirror).
	dev.Op(OpFixedAdd)
	check("fast again", false)
	dev.EnableWARCheck()
	check("war attach", true)
	dev.Op(OpStoreFRAM)
	check("war ops", true)
}

// checkNowMirrors asserts the O(1) (cycles, pJ) mirrors the tracer
// timestamps events with equal both the full per-section derivation —
// recomputed here from the raw op counts and the cost model — and
// Stats().LiveCycles/EnergyPJ.
func checkNowMirrors(t *testing.T, d *Device, label string) {
	t.Helper()
	var wantCyc, wantPJ int64
	for _, e := range d.toks {
		for k, n := range e.stats.OpCount {
			wantCyc += n * int64(d.Cost.Costs[k].Cycles)
			wantPJ += n * energy.PicojoulesOf(d.Cost.Costs[k].EnergyNJ)
		}
	}
	cyc, pj := d.cycNow, d.pjNow
	if cyc != wantCyc || pj != wantPJ {
		t.Fatalf("%s: mirrors (%d cyc, %d pJ), per-section derivation (%d cyc, %d pJ)",
			label, cyc, pj, wantCyc, wantPJ)
	}
	if st := d.Stats(); st.LiveCycles != cyc || st.EnergyPJ != pj {
		t.Fatalf("%s: mirrors (%d cyc, %d pJ), Stats (%d cyc, %d pJ)",
			label, cyc, pj, st.LiveCycles, st.EnergyPJ)
	}
}

// TestNowMirrorsMatchDerivation is the regression guard for O(1) trace
// timestamps: every accounting path (scalar, range, one- and
// multi-segment fused trains, observed slow path) must keep the incremental (cycles, pJ)
// mirrors equal to the derivation from per-section op counts, and every
// wholesale stats replacement (brown-out recovery, Reboot, ResetStats,
// Reprovision, RestorePrefix) must leave them resynced.
func TestNowMirrorsMatchDerivation(t *testing.T) {
	power := func() energy.System {
		return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
	}
	layout := func(d *Device) (f, s *mem.Region) {
		return d.FRAM.MustAlloc("f", 64, 2), d.SRAM.MustAlloc("s", 64, 2)
	}
	// workload charges through every accounting entry point.
	workload := func(d *Device, f, s *mem.Region) {
		tokK := d.SectionToken("conv", PhaseKernel)
		tokC := d.SectionToken("conv", PhaseControl)
		d.SetSection("conv", PhaseKernel)
		d.Op(OpFixedMul)
		d.Ops(OpAdd, 9)
		d.LoadRange(f, 0, 8)
		d.StoreRange(s, 0, make([]int64, 8))
		d.MACRange(f, 0, s, 0, 16)
		blk := d.NewBlock(
			BlockOp{Tok: tokK, Kind: OpLoadFRAM, N: 3},
			BlockOp{Tok: tokK, Kind: OpFixedMul, N: 2},
			BlockOp{Tok: tokC, Kind: OpStoreFRAM, N: 1})
		d.ChargeTrain([]TrainSeg{{Blk: blk, N: 7}})
		blk2 := d.NewBlock(BlockOp{Tok: tokC, Kind: OpBranch, N: 4})
		d.ChargeTrain([]TrainSeg{{Blk: blk, N: 3}, {Blk: blk2, N: 5}})
		d.Progress()
	}

	dev := New(power())
	f, s := layout(dev)
	checkNowMirrors(t, dev, "fresh")
	workload(dev, f, s)
	checkNowMirrors(t, dev, "charging paths")

	// Brown out mid-stream (the failing op is never accounted), reboot.
	if dev.Attempt(func() {
		for {
			dev.Op(OpFixedMul)
		}
	}) {
		t.Fatal("infinite loop completed")
	}
	checkNowMirrors(t, dev, "brown-out")
	if err := dev.Reboot(); err != nil {
		t.Fatal(err)
	}
	checkNowMirrors(t, dev, "reboot")

	workload(dev, f, s)
	checkNowMirrors(t, dev, "next cycle")

	dev.ResetStats()
	checkNowMirrors(t, dev, "reset")
	workload(dev, f, s)
	checkNowMirrors(t, dev, "after reset")

	dev.Reprovision(power())
	checkNowMirrors(t, dev, "reprovision")
	workload(dev, f, s)
	checkNowMirrors(t, dev, "after reprovision")

	// Observed slow path: a journaled golden run, then a fork restored to
	// a mid-run prefix from it.
	golden := New(energy.Continuous{})
	gf, gs := layout(golden)
	j := golden.StartJournal(16)
	workload(golden, gf, gs)
	golden.StopJournal()
	checkNowMirrors(t, golden, "journaled")
	fork := New(energy.Continuous{})
	ff, fs := layout(fork)
	if err := j.RestorePrefix(fork, j.MaxOp()/2); err != nil {
		t.Fatal(err)
	}
	checkNowMirrors(t, fork, "restore prefix")
	workload(fork, ff, fs)
	checkNowMirrors(t, fork, "after restore prefix")
}
