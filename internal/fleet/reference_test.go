package fleet

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
)

// simulate is the fleet oracles' per-device reference: one device instance
// run to its first inference on a freshly constructed, freshly deployed
// device — no prototype, no pool slot, no restore-in-place — on the fused
// fast path (scalar false) or on the mcu.Device.Scalar reference path.
func simulate(ds DeviceSpec, m Model, rt core.Runtime, scalar bool) (DeviceStats, error) {
	power, err := ds.Power.New(ds.HarvestSeed)
	if err != nil {
		return DeviceStats{}, err
	}
	dev := mcu.New(power)
	dev.Scalar = scalar
	dev.TrackWasted(true)
	img, err := core.Deploy(dev, m.QM)
	if err != nil {
		return DeviceStats{}, fmt.Errorf("fleet: deploy %s on device %d: %w", m.Net, ds.Index, err)
	}
	return runDevice(dev, img, ds, m, rt)
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
