package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/harness"
)

// realNetCampaign prepares the paper's three evaluation networks (MNIST,
// HAR, OkGoogle in quick mode) and returns their registry with a small
// campaign over them: two full model × runtime × power cross-products.
func realNetCampaign(t *testing.T) (Spec, map[string]Model) {
	t.Helper()
	prepped, err := harness.PrepareAll(harness.PrepareOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	models := make(map[string]Model, len(prepped))
	names := make([]string, 0, len(prepped))
	for _, p := range prepped {
		models[p.Net] = Model{Net: p.Net, QM: p.Model, Input: p.Model.QuantizeInput(p.Input)}
		names = append(names, p.Net)
	}
	spec := Spec{
		Devices:  36,
		Seed:     1,
		Models:   names,
		Runtimes: []string{"tile-32", "sonic", "tails"},
		Powers: []PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
	return spec, models
}

// TestFleetRealNetworks sweeps a small fleet over the paper's three
// evaluation networks instead of the synthetic tiny model the other fleet
// tests use: the campaign engine must handle real layer mixes (sparse
// convs, LEA tiles, pooling) through the same Spec cross-product, and the
// campaign — fused kernels, pooled provisioning — must reproduce the
// per-device fresh Scalar reference (referenceRun on the
// mcu.Device.Scalar path) bit-for-bit, down to sketch centroids and
// histogram bins. CI runs this as the real-network fleet smoke.
func TestFleetRealNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network fleet sweep needs quick-mode GENESIS preparation")
	}
	spec, models := realNetCampaign(t)
	fused, err := Run(context.Background(), spec, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Done != spec.Devices {
		t.Fatalf("swept %d of %d devices", fused.Done, spec.Devices)
	}
	if fused.Agg.Summary().Completed == 0 {
		t.Fatal("no device completed an inference on the real networks")
	}
	got, want := fingerprintOf(fused), fingerprintOf(referenceRun(t, spec, models, true))
	if !reflect.DeepEqual(got, want) {
		a, _ := json.Marshal(got.Summary)
		b, _ := json.Marshal(want.Summary)
		t.Fatalf("fleet aggregates diverge from the fresh Scalar reference on real networks:\nfleet  %s\nscalar %s", a, b)
	}
}

// TestProvisionedFleetBitIdentical is the provisioned-≡-fresh acceptance
// oracle on the paper's real networks: the fresh reference campaign
// (referenceRun: every device pays a full mcu.New + core.Deploy) and
// campaigns whose devices are provisioned by COW restore-in-place into
// per-worker pools must produce bit-identical results at every worker
// count, down to sketch centroids and histogram bins. CI greps for the
// per-worker-count subtest PASS lines under -race.
func TestProvisionedFleetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network provisioning oracle needs quick-mode GENESIS preparation")
	}
	spec, models := realNetCampaign(t)
	base := referenceRun(t, spec, models, false)
	if base.Agg.Summary().Completed == 0 {
		t.Fatal("degenerate fresh baseline: no device completed")
	}
	want := fingerprintOf(base)

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		name := "workers-max"
		if workers <= 4 {
			name = fmt.Sprintf("workers-%d", workers)
		}
		t.Run(name, func(t *testing.T) {
			r, err := Run(context.Background(), spec, models, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(r); !reflect.DeepEqual(got, want) {
				a, _ := json.Marshal(want.Summary)
				b, _ := json.Marshal(got.Summary)
				t.Fatalf("provisioned fleet (workers=%d) diverges from fresh:\nfresh       %s\nprovisioned %s", workers, a, b)
			}
			if p := r.Provision; p.Restores != distinctExecutions(spec) || p.Prototypes != int64(len(spec.Models)) {
				t.Fatalf("provisioning counters off: %+v", r.Provision)
			}
		})
	}
}

// TestFleetRuntimePanicFailsCampaign is the regression for a runtime that
// panics mid-inference: tile-100000 passes Spec.Validate but overflows the
// task runtime's redo log on mnist. The panic, raised in a worker
// goroutine, must come back as the campaign's error naming the device
// instead of killing the process.
func TestFleetRuntimePanicFailsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the quick-mode mnist network")
	}
	_, models := realNetCampaign(t)
	spec := Spec{
		Devices:  1,
		Seed:     1,
		Models:   []string{"mnist"},
		Runtimes: []string{"tile-100000"},
		Powers:   []PowerClass{{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}}},
	}
	r, err := Run(context.Background(), spec, models, 2)
	if err == nil {
		t.Fatalf("panicking runtime finished the campaign: %+v", r.Agg.Summary())
	}
	for _, want := range []string{"device 0 (mnist/tile-100000/cont)", "panic", "redo log overflow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("campaign error %q does not contain %q", err, want)
		}
	}
}
