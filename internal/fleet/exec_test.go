package fleet

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/energy"
)

// distinctExecutions counts the distinct (model, runtime, power execution
// key) triples among spec's devices: the simulations a campaign runs.
func distinctExecutions(spec Spec) int64 {
	seen := make(map[execKey]bool)
	for i := 0; i < spec.Devices; i++ {
		ds := spec.Device(i)
		seen[execKey{ds.Model, ds.Runtime, ds.Power.ExecKey()}] = true
	}
	return int64(len(seen))
}

// sharedSpec mixes every harvester kind on one 100 µF capacitor, so four
// power classes share each execution, with a second capacitor and
// continuous power beside them.
func sharedSpec(devices int) Spec {
	c := 100e-6
	return Spec{
		Devices:  devices,
		Seed:     3,
		Models:   []string{"tiny"},
		Runtimes: []string{"base", "tile-32", "sonic", "tails"},
		Powers: []PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: c}},
			{Name: "stoch-100uF", SystemSpec: energy.SystemSpec{Kind: "stoch", CapFarads: c}},
			{Name: "solar-100uF", SystemSpec: energy.SystemSpec{Kind: "solar", CapFarads: c, Watts: 5e-3}},
			{Name: "trace-100uF", SystemSpec: energy.SystemSpec{Kind: "trace", CapFarads: c, Trace: []float64{1e-3, 4e-3, 2.5e-3}}},
			{Name: "rf-47uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 47e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
}

// TestFleetSharedExecutions is the shared-execution oracle: a campaign
// simulates each distinct (model, runtime, power execution key) once and
// replays every device's own harvester over the deficit tape, and that
// must be bit-identical to referenceRun, which simulates every device in
// full on its own power system, at every worker count. The provisioning
// counters show how many simulations actually ran. CI greps for these
// subtest PASS lines.
func TestFleetSharedExecutions(t *testing.T) {
	models := testModels(1)
	spec := sharedSpec(480)
	execs := distinctExecutions(spec)
	if execs != 12 {
		t.Fatalf("spec has %d distinct executions, want 4 runtimes x 3 execution keys = 12", execs)
	}
	ref := referenceRun(t, spec, models, false)
	if ref.Agg.Completed == 0 || ref.Agg.Reboots == 0 {
		t.Fatalf("degenerate reference: completed=%d reboots=%d", ref.Agg.Completed, ref.Agg.Reboots)
	}
	want := fingerprintOf(ref)

	for _, workers := range []int{1, 2, 4} {
		t.Run(subtestName("workers", workers), func(t *testing.T) {
			r, err := Run(context.Background(), spec, models, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("shared executions (workers=%d) differ from the per-device reference:\ngot  %+v\nwant %+v", workers, got, want)
			}
			if r.Provision.Restores != execs {
				t.Fatalf("campaign ran %d simulations, want one per distinct execution (%d)", r.Provision.Restores, execs)
			}
		})
	}
}
