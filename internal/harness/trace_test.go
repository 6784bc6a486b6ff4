package harness

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/trace"
)

// TestTraceNeutrality checks that enabling tracing is purely
// observational: under deterministic failure injection, every runtime
// produces the same prediction, stats, and completion status traced and
// untraced.
func TestTraceNeutrality(t *testing.T) {
	p := prepQuick(t, "har")
	input := p.Model.QuantizeInput(p.Input)
	// Fail every 60k operations: enough for the protected runtimes to make
	// progress between failures, and several reboots per inference.
	failing := PowerSpec{Name: "failinj", New: func(uint64) energy.System {
		return energy.NewFailAfterOps(60000, 60000)
	}}
	runtimes := append(Runtimes(), core.Runtime(checkpoint.Checkpoint{Interval: 64}))
	for _, rt := range runtimes {
		plain, perr := Measure(p.Net, p.Model, rt, failing, input)
		buf := trace.NewBuffer(1024) // small, so the ring wraps
		traced, a, terr := MeasureTraced(p.Net, p.Model, rt, failing, input, buf)
		if (perr == nil) != (terr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", rt.Name(), perr, terr)
		}
		if perr != nil {
			continue
		}
		if plain.Completed != traced.Completed || plain.Predicted != traced.Predicted {
			t.Errorf("%s: completion/prediction differ traced (%v/%d) vs untraced (%v/%d)",
				rt.Name(), traced.Completed, traced.Predicted, plain.Completed, plain.Predicted)
		}
		if plain.LiveSec != traced.LiveSec || plain.EnergyMJ != traced.EnergyMJ ||
			plain.Reboots != traced.Reboots || plain.DeadSec != traced.DeadSec {
			t.Errorf("%s: stats differ traced vs untraced:\n  %+v\n  %+v", rt.Name(), traced, plain)
		}
		// The online aggregation must agree with the device's own counters.
		if a.Reboots != plain.Reboots {
			t.Errorf("%s: analysis reboots %d vs device %d", rt.Name(), a.Reboots, plain.Reboots)
		}
	}
}

// TestWastedWorkTileVsSONIC reproduces the tentpole acceptance claim: on
// the paper's 100 µF system, coarse-grained Tile-128 wastes more energy
// per charge cycle than SONIC's loop continuation, because a task that
// exceeds the buffer re-executes from its start every cycle while SONIC
// loses at most the in-flight iteration.
func TestWastedWorkTileVsSONIC(t *testing.T) {
	p := prepQuick(t, "har")
	input := p.Model.QuantizeInput(p.Input)
	uf100 := Powers()[3]
	if uf100.Name != "100uF" {
		t.Fatalf("power order changed: %s", uf100.Name)
	}
	_, sonicA, err := MeasureTraced(p.Net, p.Model, Runtimes()[4], uf100, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, tileA, err := MeasureTraced(p.Net, p.Model, Runtimes()[3], uf100, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sonicA.Reboots == 0 || tileA.Reboots == 0 {
		t.Fatalf("expected reboots at 100uF: sonic %d, tile-128 %d", sonicA.Reboots, tileA.Reboots)
	}
	sw, tw := sonicA.WastedEnergyPerCycleNJ(), tileA.WastedEnergyPerCycleNJ()
	if tw <= sw {
		t.Errorf("tile-128 should waste more per charge cycle: tile %.0f nJ vs sonic %.0f nJ", tw, sw)
	}
}

// TestStochasticPowersReproducible checks the CLI-facing property the
// seed plumbing exists for: same seed, same run; different seed,
// (almost surely) different power schedule.
func TestStochasticPowersReproducible(t *testing.T) {
	p := prepQuick(t, "har")
	input := p.Model.QuantizeInput(p.Input)
	spec := StochasticPowers(7)[0]
	a, err := Measure(p.Net, p.Model, Runtimes()[4], spec, input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(p.Net, p.Model, Runtimes()[4], spec, input)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeadSec != b.DeadSec || a.Reboots != b.Reboots {
		t.Errorf("same seed must reproduce: %+v vs %+v", a, b)
	}
	spec2 := StochasticPowers(8)[0]
	c, err := Measure(p.Net, p.Model, Runtimes()[4], spec2, input)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeadSec == c.DeadSec {
		t.Errorf("different seeds gave identical dead time %v", a.DeadSec)
	}
}

// TestFindIndexed checks Find after RunAll, including misses.
func TestFindIndexed(t *testing.T) {
	ev := &Eval{Results: []RunResult{
		{Net: "har", Runtime: "sonic", Power: "cont", Reboots: 1},
		{Net: "har", Runtime: "tails", Power: "100uF", Reboots: 2},
	}}
	if r := ev.Find("har", "tails", "100uF"); r == nil || r.Reboots != 2 {
		t.Errorf("Find hit failed: %+v", r)
	}
	if r := ev.Find("har", "sonic", "1mF"); r != nil {
		t.Errorf("Find miss returned %+v", r)
	}
}
