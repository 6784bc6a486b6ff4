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
// per-device fresh per-op reference (referenceRun on the
// energy.PerOp path) bit-for-bit, down to sketch centroids and
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
	checkPanicFails(t, panicSpec("tile-100000"), models, 0)
}

// panicSpec is a one-model mnist campaign over the given runtimes on
// continuous power.
func panicSpec(runtimes ...string) Spec {
	return Spec{
		Devices:  len(runtimes),
		Seed:     1,
		Models:   []string{"mnist"},
		Runtimes: runtimes,
		Powers:   []PowerClass{{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}}},
	}
}

// checkPanicFails runs spec and requires it to fail with the redo-log
// panic of its device dev.
func checkPanicFails(t *testing.T, spec Spec, models map[string]Model, dev int) {
	t.Helper()
	r, err := Run(context.Background(), spec, models, 2)
	if err == nil {
		t.Fatalf("panicking runtime finished the campaign: %+v", r.Agg.Summary())
	}
	for _, want := range []string{fmt.Sprintf("device %d (mnist/tile-100000/cont)", dev), "panic", "redo log overflow"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("campaign error %q does not contain %q", err, want)
		}
	}
}

// TestFleetFailedExecutionsNotShared: a failed execution is dropped from
// its prototype's table, never served to a later campaign. Over one
// shared prototype the panicking spec fails afresh on every run, naming
// its own device; a campaign that took the slot before the failure
// simulates it again for its own device; and the prototype still serves
// a good campaign afterwards.
func TestFleetFailedExecutionsNotShared(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the quick-mode mnist network")
	}
	_, models := realNetCampaign(t)
	m := models["mnist"]
	proto, err := NewPrototype(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Proto = proto
	shared := map[string]Model{"mnist": m}

	// Started before the failure: it holds the failing slot already.
	stale, err := NewCampaign(panicSpec("tile-32", "tile-100000"), shared)
	if err != nil {
		t.Fatal(err)
	}
	stale.execs = stale.newExecUses()
	checkPanicFails(t, panicSpec("tile-100000"), shared, 0)
	checkPanicFails(t, panicSpec("tile-100000"), shared, 0)
	if got := proto.ExecStats(); got.Simulated != 2 || got.Reused != 0 {
		t.Fatalf("the failed execution was served again: prototype counters %+v", got)
	}
	if _, err := stale.sweep(context.Background(), 2); err == nil || !strings.Contains(err.Error(), "device 1 (mnist/tile-100000/cont)") {
		t.Fatalf("campaign holding the failed slot: error %v, want its own device 1", err)
	}
	r, err := Run(context.Background(), panicSpec("tile-32"), shared, 2)
	if err != nil {
		t.Fatalf("good campaign over the prototype after failures: %v", err)
	}
	if r.Agg.Completed != 1 {
		t.Fatalf("good campaign completed %d of 1 devices", r.Agg.Completed)
	}
}
