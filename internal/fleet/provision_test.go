package fleet

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// TestProvisionedTinyFleetBitIdentical is the provisioned-≡-fresh oracle
// on the synthetic tiny model: the fresh reference campaign (referenceRun:
// every device pays mcu.New + core.Deploy) and pooled campaigns must
// produce bit-identical aggregates at every worker count. The
// real-network form lives in realnet_test.go as
// TestProvisionedFleetBitIdentical.
func TestProvisionedTinyFleetBitIdentical(t *testing.T) {
	models := testModels(1)
	spec := testSpec(600)
	want := fingerprintOf(referenceRun(t, spec, models, false))

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		t.Run(subtestName("workers", workers), func(t *testing.T) {
			r, err := Run(context.Background(), spec, models, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("pooled workers=%d aggregates differ from fresh baseline:\ngot  %+v\nwant %+v", workers, got, want)
			}
			p := r.Provision
			if p.Restores != 600 {
				t.Fatalf("pooled campaign provisioning counters off: %+v", p)
			}
			if p.Prototypes != 1 {
				t.Fatalf("one model should deploy one prototype, got %d", p.Prototypes)
			}
			if p.SlotDeploys < 1 || p.SlotDeploys > int64(workers) {
				t.Fatalf("slot deploys = %d, want in [1, workers=%d]", p.SlotDeploys, workers)
			}
			// The dirty tracking must be doing real work: weight regions are
			// never written by inference, so steady-state restores skip their
			// pages wholesale, while activation/control pages actually copy.
			if p.PagesSkipped == 0 || p.PagesCopied == 0 {
				t.Fatalf("degenerate page traffic (skipped=%d copied=%d): dirty tracking inert", p.PagesSkipped, p.PagesCopied)
			}
		})
	}
}

// TestPoolPurityAfterBrownOut is the no-residue oracle: a device that
// browned out hundreds of times and then failed to terminate is the
// worst-case polluter — partial activations, torn accumulators, control
// state mid-protocol, reboot bookkeeping. Re-provisioning its slot must
// leave banks byte-identical to the prototype (and to a fresh deploy),
// and the next simulation on the slot must match a fresh device exactly.
func TestPoolPurityAfterBrownOut(t *testing.T) {
	models := testModels(1)
	m := models["tiny"]
	proto, err := NewPrototype(m)
	if err != nil {
		t.Fatal(err)
	}
	p := &pool{protos: map[string]*Prototype{"tiny": proto}, slots: make(map[string]*slot)}

	// tile-128 tasks exceed a 20 µF constant-charge budget, so the run
	// reboots until the device gives up — leaving maximal mid-flight
	// residue.
	rf := PowerClass{Name: "rf-20uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 20e-6}}
	rt128, err := RuntimeByName("tile-128")
	if err != nil {
		t.Fatal(err)
	}
	dnc := DeviceSpec{Index: 0, Model: "tiny", Runtime: "tile-128", Power: rf, HarvestSeed: deviceSeed(1, 0)}
	st, err := p.simulate(dnc, m, rt128)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed || st.Reboots == 0 {
		t.Fatalf("residue generator broke: tile-128 on rf-20uF completed=%v reboots=%d", st.Completed, st.Reboots)
	}

	sl := p.slots["tiny"]
	if err := sl.provision(energy.Continuous{}, &p.stats); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sl.dev.FRAM.Snapshot(nil, nil), proto.fram) {
		t.Error("FRAM differs from prototype after re-provisioning a browned-out slot")
	}
	if !reflect.DeepEqual(sl.dev.SRAM.Snapshot(nil, nil), proto.sram) {
		t.Error("SRAM differs from prototype after re-provisioning a browned-out slot")
	}
	ref := mcu.New(energy.Continuous{})
	if _, err := core.Deploy(ref, m.QM); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sl.dev.FRAM.Snapshot(nil, nil), ref.FRAM.Snapshot(nil, nil)) {
		t.Error("provisioned FRAM differs from a fresh deploy")
	}

	// And the behavioral form: the next device simulated on the polluted
	// slot must be indistinguishable from one on a brand-new device.
	ok := DeviceSpec{Index: 1, Model: "tiny", Runtime: "sonic", Power: rf, HarvestSeed: deviceSeed(1, 1)}
	rtOK, err := RuntimeByName("sonic")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.simulate(ok, m, rtOK)
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := simulate(ok, m, rtOK, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Completed {
		t.Fatal("sonic on rf-20uF should complete")
	}
	if !reflect.DeepEqual(got, wantSt) {
		t.Fatalf("post-brown-out pooled device stats = %+v, fresh = %+v", got, wantSt)
	}
}

// TestProvisioningAllocsConstant is the O(1) allocation regression.
// Steady-state provisioning rewinds existing banks in place — no device,
// region, image, or page allocation — so it must stay at a tiny constant
// regardless of model size; and a whole pooled simulation must allocate
// strictly less than the fresh path, which pays mcu.New + core.Deploy
// per device on top of the same inference.
func TestProvisioningAllocsConstant(t *testing.T) {
	models := testModels(1)
	m := models["tiny"]
	rt, err := RuntimeByName("tile-32")
	if err != nil {
		t.Fatal(err)
	}
	cont := PowerClass{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}}
	ds := DeviceSpec{Index: 0, Model: "tiny", Runtime: "tile-32", Power: cont, HarvestSeed: deviceSeed(1, 0)}

	proto, err := NewPrototype(m)
	if err != nil {
		t.Fatal(err)
	}
	p := &pool{protos: map[string]*Prototype{"tiny": proto}, slots: make(map[string]*slot)}
	if _, err := p.simulate(ds, m, rt); err != nil { // cold: slot deploy
		t.Fatal(err)
	}
	sl := p.slots["tiny"]
	provAllocs := testing.AllocsPerRun(10, func() {
		if err := sl.provision(energy.Continuous{}, &p.stats); err != nil {
			t.Fatal(err)
		}
	})
	if provAllocs > 8 {
		t.Fatalf("restore-in-place provisioning allocates %.0f objects/run, want O(1)", provAllocs)
	}

	pooled := testing.AllocsPerRun(10, func() {
		if _, err := p.simulate(ds, m, rt); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := simulate(ds, m, rt, false); err != nil {
			t.Fatal(err)
		}
	})
	// Both paths pay the runtime's own per-inference setup, so on the tiny
	// model the gap is the deploy's region allocations; on real networks it
	// is hundreds of KB of tables. Require a solid margin, not a ratio —
	// ratios flap with runtime-internals churn.
	if pooled+20 > fresh {
		t.Fatalf("pooled simulate allocates %.0f objects/run vs fresh %.0f: pooling shed no deploy work", pooled, fresh)
	}
}
