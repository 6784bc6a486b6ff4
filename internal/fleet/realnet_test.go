package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/harness"
)

// TestFleetRealNetworks sweeps a small fleet over the paper's three
// evaluation networks (MNIST, HAR, OkGoogle in quick mode) instead of the
// synthetic tiny model the other fleet tests use: the campaign engine must
// handle real layer mixes (sparse convs, LEA tiles, pooling) through the
// same Spec cross-product, and the fused-kernel campaign must reproduce
// the Scalar reference campaign's (Spec.Scalar) aggregates bit-for-bit on
// them. CI runs this as the real-network fleet smoke.
func TestFleetRealNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network fleet sweep needs quick-mode GENESIS preparation")
	}
	prepped, err := harness.PrepareAll(harness.PrepareOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	models := make(map[string]fleet.Model, len(prepped))
	names := make([]string, 0, len(prepped))
	for _, p := range prepped {
		models[p.Net] = fleet.Model{Net: p.Net, QM: p.Model, Input: p.Model.QuantizeInput(p.Input)}
		names = append(names, p.Net)
	}
	spec := fleet.Spec{
		Devices:  36, // two full model × runtime × power cross-products
		Seed:     1,
		Models:   names,
		Runtimes: []string{"tile-32", "sonic", "tails"},
		Powers: []fleet.PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
	fused, err := fleet.Run(context.Background(), spec, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Done != spec.Devices {
		t.Fatalf("swept %d of %d devices", fused.Done, spec.Devices)
	}
	sum := fused.Agg.Summary()
	if sum.Completed == 0 {
		t.Fatal("no device completed an inference on the real networks")
	}

	scalarSpec := spec
	scalarSpec.Scalar = true
	scalar, err := fleet.Run(context.Background(), scalarSpec, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar.Agg.Summary(), sum) {
		a, _ := json.Marshal(sum)
		b, _ := json.Marshal(scalar.Agg.Summary())
		t.Fatalf("scalar fleet aggregates diverge on real networks:\nfused  %s\nscalar %s", a, b)
	}
	if !reflect.DeepEqual(scalar.Agg.IMpJ.Centroids(), fused.Agg.IMpJ.Centroids()) ||
		!reflect.DeepEqual(scalar.Agg.RebootHist.Counts(), fused.Agg.RebootHist.Counts()) {
		t.Fatal("scalar fleet sketches/histograms diverge on real networks")
	}
}

// TestProvisionedFleetBitIdentical is the provisioned-≡-fresh acceptance
// oracle on the paper's real networks: a campaign whose every device pays
// a full fresh deploy (Spec.Fresh) and the default campaign — devices
// provisioned by COW restore-in-place into per-worker pools — must
// produce bit-identical results at every worker count, down to sketch
// centroids and histogram bins. CI greps for the per-worker-count subtest
// PASS lines under -race.
func TestProvisionedFleetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network provisioning oracle needs quick-mode GENESIS preparation")
	}
	prepped, err := harness.PrepareAll(harness.PrepareOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	models := make(map[string]fleet.Model, len(prepped))
	names := make([]string, 0, len(prepped))
	for _, p := range prepped {
		models[p.Net] = fleet.Model{Net: p.Net, QM: p.Model, Input: p.Model.QuantizeInput(p.Input)}
		names = append(names, p.Net)
	}
	spec := fleet.Spec{
		Devices:  36, // two full model × runtime × power cross-products
		Seed:     1,
		Models:   names,
		Runtimes: []string{"tile-32", "sonic", "tails"},
		Powers: []fleet.PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
	type print struct {
		Summary  fleet.Summary
		IMpJ     []fleet.Centroid
		FirstSec []fleet.Centroid
		Reboots  []int64
		Wasted   []int64
		Done     int
		EnergyPJ int64
	}
	printOf := func(r *fleet.Result) print {
		return print{
			Summary:  r.Agg.Summary(),
			IMpJ:     r.Agg.IMpJ.Centroids(),
			FirstSec: r.Agg.FirstSec.Centroids(),
			Reboots:  r.Agg.RebootHist.Counts(),
			Wasted:   r.Agg.WastedHist.Counts(),
			Done:     r.Done,
			EnergyPJ: r.Agg.EnergyPJ,
		}
	}

	freshSpec := spec
	freshSpec.Fresh = true
	base, err := fleet.Run(context.Background(), freshSpec, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Agg.Summary().Completed == 0 {
		t.Fatal("degenerate fresh baseline: no device completed")
	}
	want := printOf(base)

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		name := "workers-max"
		if workers <= 4 {
			name = fmt.Sprintf("workers-%d", workers)
		}
		t.Run(name, func(t *testing.T) {
			r, err := fleet.Run(context.Background(), spec, models, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := printOf(r); !reflect.DeepEqual(got, want) {
				a, _ := json.Marshal(want.Summary)
				b, _ := json.Marshal(got.Summary)
				t.Fatalf("provisioned fleet (workers=%d) diverges from fresh:\nfresh       %s\nprovisioned %s", workers, a, b)
			}
			if p := r.Provision; p.Restores != int64(spec.Devices) || p.FreshDeploys != 0 || p.Prototypes != int64(len(names)) {
				t.Fatalf("provisioning counters off: %+v", r.Provision)
			}
		})
	}
}
