package fleet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
)

// simulate is the fleet oracles' per-device reference: one device instance
// run to its first inference on a freshly constructed, freshly deployed
// device — no prototype, no pool slot, no restore-in-place — on the fused
// fast path (scalar false) or on the energy.PerOp reference path. A
// reference device that fused any op is an error: a reference that
// silently took the fast path would only compare the fast path with
// itself.
func simulate(ds DeviceSpec, m Model, rt core.Runtime, scalar bool) (DeviceStats, error) {
	power, err := ds.Power.New(ds.HarvestSeed)
	if err != nil {
		return DeviceStats{}, err
	}
	if scalar {
		power = energy.PerOp{S: power}
	}
	dev := mcu.New(power)
	img, err := core.Deploy(dev, m.QM)
	if err != nil {
		return DeviceStats{}, fmt.Errorf("fleet: deploy %s on device %d: %w", m.Net, ds.Index, err)
	}
	probe := &fusedProbe{Runtime: rt}
	st, _, err := runDevice(dev, img, ds, m, probe)
	if err == nil && scalar && probe.fused != 0 {
		err = fmt.Errorf("fleet: per-op reference device %d fused %d ops", ds.Index, probe.fused)
	}
	return st, err
}

// fusedProbe runs a runtime and records how many ops its device fused.
// It reads Device.FusedOps as soon as the run returns: runDevice then
// reads the run through core.Finish, whose TakeStats resets the count.
type fusedProbe struct {
	core.Runtime
	fused int64
}

func (p *fusedProbe) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	logits, err := p.Runtime.Infer(img, input)
	p.fused = img.Dev.FusedOps()
	return logits, err
}

// referenceRun is the fresh reference campaign the fleet oracles compare
// pooled campaigns against: every device of spec simulated in isolation,
// folded into shard i % shardCount in index order, and the shards merged
// in shard order — the reduction runShard and Snapshot perform, without
// workers, pools or prototypes. Its Provision counters stay zero.
func referenceRun(t testing.TB, spec Spec, models map[string]Model, scalar bool) *Result {
	t.Helper()
	if err := spec.Validate(models); err != nil {
		t.Fatal(err)
	}
	shards := make([]*Aggregates, spec.shardCount())
	for s := range shards {
		shards[s] = newAggregates()
	}
	for i := 0; i < spec.Devices; i++ {
		ds := spec.Device(i)
		rt, err := RuntimeByName(ds.Runtime)
		if err != nil {
			t.Fatal(err)
		}
		st, err := simulate(ds, models[ds.Model], rt, scalar)
		if err != nil {
			t.Fatal(err)
		}
		shards[i%len(shards)].observe(st)
	}
	agg := newAggregates()
	for _, sh := range shards {
		if err := agg.merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	return &Result{Spec: spec, Done: spec.Devices, Agg: agg}
}
