package fleet

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/energy"
)

// distinctExecutions counts the distinct (model, runtime, power execution
// key) triples among spec's devices: the simulations a campaign runs.
func distinctExecutions(spec Spec) int64 {
	type execKey struct {
		model string
		key   tableKey
	}
	seen := make(map[execKey]bool)
	for i := 0; i < spec.Devices; i++ {
		ds := spec.Device(i)
		seen[execKey{ds.Model, tableKey{ds.Runtime, ds.Power.ExecKey()}}] = true
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

// sharedProtoModels returns the tiny-model registry with one prototype
// of execution-table bound limit attached, so every campaign over the
// registry shares that prototype's executions, as served jobs do.
func sharedProtoModels(t *testing.T, limit int) (shared, fresh map[string]Model, proto *Prototype) {
	t.Helper()
	fresh = testModels(1)
	m := fresh["tiny"]
	proto, err := newPrototype(m, limit)
	if err != nil {
		t.Fatal(err)
	}
	m.Proto = proto
	return map[string]Model{"tiny": m}, fresh, proto
}

// protoCampaign is one campaign of a shared-prototype sequence and the
// provisioning counters it must report.
type protoCampaign struct {
	name                 string
	spec                 Spec
	restores, executions int64
}

// withPowers is a tiny-model spec over the given runtimes and power classes.
func withPowers(devices int, seed uint64, runtimes []string, powers ...PowerClass) Spec {
	return Spec{Devices: devices, Seed: seed, Models: []string{"tiny"}, Runtimes: runtimes, Powers: powers}
}

var (
	rf100 = PowerClass{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}}
	st100 = PowerClass{Name: "stoch-100uF", SystemSpec: energy.SystemSpec{Kind: "stoch", CapFarads: 100e-6}}
	rf47  = PowerClass{Name: "rf-47uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 47e-6}}
	cont  = PowerClass{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}}
)

// runProtoSequence runs the campaigns in order over one shared registry
// prototype and checks each against the per-device reference (built on
// models without a prototype) and against its expected counters.
func runProtoSequence(t *testing.T, shared, fresh map[string]Model, workers int, seq []protoCampaign) {
	t.Helper()
	for _, pc := range seq {
		r, err := Run(context.Background(), pc.spec, shared, workers)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if got, want := fingerprintOf(r), fingerprintOf(referenceRun(t, pc.spec, fresh, false)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: campaign over a shared prototype differs from the per-device reference:\ngot  %+v\nwant %+v", pc.name, got, want)
		}
		if p := r.Provision; p.Restores != pc.restores || p.Executions != pc.executions || p.Prototypes != 0 {
			t.Fatalf("%s: provisioning counters %+v, want %d restores and %d reused executions", pc.name, p, pc.restores, pc.executions)
		}
	}
}

// TestFleetSharedPrototype is the cross-campaign oracle: campaigns over
// one registry prototype share its execution table, and each must still
// be bit-identical to the per-device reference. A later campaign with a
// new seed or device count simulates nothing it shares with an earlier
// one, and a new capacitor costs exactly its new executions.
func TestFleetSharedPrototype(t *testing.T) {
	rts := []string{"base", "tile-32", "sonic", "tails"}
	for _, workers := range []int{1, 2, 4} {
		t.Run(subtestName("workers", workers), func(t *testing.T) {
			shared, fresh, proto := sharedProtoModels(t, MaxCombinations)
			runProtoSequence(t, shared, fresh, workers, []protoCampaign{
				{"first", withPowers(96, 1, rts, rf100, cont), 8, 0},
				{"new-seed", withPowers(96, 2, rts, rf100, cont), 0, 8},
				{"new-size", withPowers(37, 3, rts, st100, cont), 0, 8},
				{"new-capacitor", withPowers(120, 4, rts, rf100, rf47, cont), 4, 8},
			})
			if got, want := proto.ExecStats(), (ExecStats{Simulated: 12, Reused: 24}); got != want {
				t.Fatalf("prototype counters %+v, want %+v", got, want)
			}
		})
	}
}

// TestFleetSharedPrototypeEviction bounds the table to four entries:
// evicting an execution stops only future sharing. A campaign keeps
// sharing its own executions even when it needs more than the bound, and
// every campaign stays bit-identical to the per-device reference.
func TestFleetSharedPrototypeEviction(t *testing.T) {
	rts := []string{"base", "sonic"}
	for _, workers := range []int{1, 2, 4} {
		t.Run(subtestName("workers", workers), func(t *testing.T) {
			shared, fresh, proto := sharedProtoModels(t, 4)
			runProtoSequence(t, shared, fresh, workers, []protoCampaign{
				{"fill", withPowers(40, 1, rts, rf100, cont), 4, 0},
				{"hit", withPowers(40, 2, rts, rf100, cont), 0, 4},
				// One new key evicts the least recently acquired, base/rf-100uF...
				{"evict", withPowers(8, 3, []string{"tile-32"}, rf47), 1, 0},
				// ...so re-acquiring the first four in order evicts each next one.
				{"thrash", withPowers(40, 4, rts, rf100, cont), 4, 0},
				// Six keys over a four-entry table: the two rf-100uF keys still
				// held are reused, and the four new ones, each needed by ten
				// devices, are simulated once although each evicts another.
				{"over-bound", withPowers(60, 5, []string{"base", "sonic", "tails"}, rf100, rf47), 4, 2},
			})
			if got, want := proto.ExecStats(), (ExecStats{Simulated: 13, Reused: 6, Evicted: 9}); got != want {
				t.Fatalf("prototype counters %+v, want %+v", got, want)
			}
		})
	}
}

// TestFleetSharedPrototypeConcurrent runs campaigns over one prototype at
// once: a shared execution is simulated exactly once (its slot's
// sync.Once is the singleflight), whichever campaign reaches it first, and
// every campaign stays bit-identical to the per-device reference.
func TestFleetSharedPrototypeConcurrent(t *testing.T) {
	shared, fresh, proto := sharedProtoModels(t, MaxCombinations)
	specs := []Spec{sharedSpec(240), sharedSpec(97), sharedSpec(480)}
	for i := range specs {
		specs[i].Seed = uint64(10 + i)
	}
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(context.Background(), spec, shared, 2)
		}()
	}
	wg.Wait()
	var restores, reused int64
	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got, want := fingerprintOf(results[i]), fingerprintOf(referenceRun(t, spec, fresh, false)); !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent campaign %d differs from the per-device reference", i)
		}
		restores += results[i].Provision.Restores
		reused += results[i].Provision.Executions
	}
	execs := distinctExecutions(specs[0])
	if restores != execs || reused != 2*execs {
		t.Fatalf("concurrent campaigns simulated %d and reused %d executions, want %d and %d", restores, reused, execs, 2*execs)
	}
	if got := proto.ExecStats(); got != (ExecStats{Simulated: execs, Reused: 2 * execs}) {
		t.Fatalf("prototype counters %+v", got)
	}
}

// TestFleetFinishedCampaignFreed: a registry prototype's table outlives
// every campaign over it but holds nothing of them, so a finished
// campaign, shard aggregates and all, is garbage once its caller drops
// it, while its executions stay in the table for the next campaign.
func TestFleetFinishedCampaignFreed(t *testing.T) {
	shared, _, _ := sharedProtoModels(t, MaxCombinations)
	spec := sharedSpec(96)
	freed := make(chan struct{})
	func() {
		c, err := NewCampaign(spec, shared)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(c, func(*Campaign) { close(freed) })
		if _, err := c.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
	}()
	collected := false
	for i := 0; i < 50 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Fatal("a finished campaign stayed reachable through its prototype's execution table")
	}
	spec.Seed++
	r, err := Run(context.Background(), spec, shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, execs := r.Provision, distinctExecutions(spec); p.Restores != 0 || p.Executions != execs {
		t.Fatalf("campaign after the first was freed simulated %d and reused %d executions, want 0 and %d",
			p.Restores, p.Executions, execs)
	}
}
