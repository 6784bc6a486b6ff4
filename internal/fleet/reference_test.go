package fleet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
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
	dev.TrackWasted(true)
	img, err := core.Deploy(dev, m.QM)
	if err != nil {
		return DeviceStats{}, fmt.Errorf("fleet: deploy %s on device %d: %w", m.Net, ds.Index, err)
	}
	st, err := runDevice(dev, img, ds, m, rt)
	if err == nil && scalar && dev.FusedOps() != 0 {
		err = fmt.Errorf("fleet: per-op reference device %d fused %d ops", ds.Index, dev.FusedOps())
	}
	return st, err
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
