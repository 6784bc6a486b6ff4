package mcu

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/energy"
)

// burn runs a restart-safe counter program to n on d.
func burn(t *testing.T, d *Device, n int64) {
	t.Helper()
	r := d.FRAM.MustAlloc("counter", 1, 2)
	defer d.FRAM.Release(r)
	err := d.Run(func() {
		for d.Load(r, 0) < n {
			v := d.Load(r, 0)
			d.Store(r, 0, v+1)
			d.Progress()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReprovisionMatchesFreshDevice(t *testing.T) {
	// A device that browned out repeatedly, wasted work, and then failed
	// to terminate carries every kind of per-run residue: stats/sections,
	// commit and wasted-work counters and baseline, reboot bookkeeping.
	used := New(energy.NewFailAfterOps(7, 7))
	burn(t, used, 10)
	if err := used.Run(func() {
		for i := 0; i < 100; i++ {
			used.Op(OpAdd)
		}
	}); !errors.Is(err, ErrDoesNotComplete) {
		t.Fatalf("setup run: %v, want ErrDoesNotComplete", err)
	}

	if st := used.Stats(); st.WastedNJ == 0 || st.Commits == 0 {
		t.Fatalf("setup run left no residue: %d commits, %v nJ wasted", st.Commits, st.WastedNJ)
	}
	used.Reprovision(energy.NewFailAfterOps(7, 7))
	if st := used.Stats(); st.Commits != 0 || st.WastedCycles != 0 || st.WastedNJ != 0 {
		t.Errorf("commit and wasted-work counters survived reprovision: %+v", st)
	}
	burn(t, used, 10)

	fresh := New(energy.NewFailAfterOps(7, 7))
	burn(t, fresh, 10)

	if !reflect.DeepEqual(used.Stats(), fresh.Stats()) {
		t.Errorf("reprovisioned stats = %+v, fresh = %+v", used.Stats(), fresh.Stats())
	}
}

func TestReprovisionRebindsPowerFastPaths(t *testing.T) {
	// Construction devirtualizes the power system (contPower/intPower
	// caches); a rebind from continuous power to an op-limited system must
	// re-probe them, or the device would never brown out.
	d := New(energy.Continuous{})
	burn(t, d, 5)
	if d.Stats().Reboots != 0 {
		t.Fatal("continuous power should not reboot")
	}
	d.Reprovision(energy.NewFailAfterOps(7, 7))
	burn(t, d, 10)
	if d.Stats().Reboots == 0 {
		t.Error("rebound op-limited power never browned out: stale devirtualized caches")
	}
}

// TestReprovisionPrunesReleasedProtocol: every tile or checkpoint run on a
// pooled device builds a task runtime, whose New marks its state block and
// redo log as protocol regions and whose Release frees them. Across many
// reprovisioned runs the protocol list must stay at its post-deploy
// length, and an armed WAR shadow must keep the deploy-time exemptions
// while forgetting the released ones.
func TestReprovisionPrunesReleasedProtocol(t *testing.T) {
	for _, war := range []bool{false, true} {
		d := New(energy.Continuous{})
		if war {
			d.EnableWARCheck()
		}
		ctl := d.FRAM.MustAlloc("ctl", 4, 2)
		data := d.FRAM.MustAlloc("data", 4, 2)
		d.MarkProtocol(ctl) // what core.Deploy marks
		deployed := len(d.protocol)
		for run := 0; run < 20; run++ {
			d.Reprovision(energy.NewFailAfterOps(7, 7))
			// task.New and Runtime.Release, which this package cannot
			// import: allocate and mark the two regions, run, free them.
			state := d.FRAM.MustAlloc("task.state", 8, 2)
			log := d.FRAM.MustAlloc("task.redolog", 2048, 4)
			d.MarkProtocol(state, log)
			burn(t, d, 10)
			d.FRAM.Release(state)
			d.FRAM.Release(log)
		}
		d.Reprovision(energy.Continuous{})
		if len(d.protocol) != deployed {
			t.Fatalf("war=%v: protocol list has %d regions after 20 runs, want the post-deploy %d", war, len(d.protocol), deployed)
		}
		if !war {
			continue
		}
		err := d.Run(func() {
			d.Store(ctl, 0, d.Load(ctl, 0)+1)
			d.Store(data, 0, d.Load(data, 0)+1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.WARViolations(); len(got) != 1 || got[0].Region != "data" {
			t.Errorf("WAR violations after reprovisioned runs = %+v, want exactly one, on data (ctl stays exempt)", got)
		}
	}
}
