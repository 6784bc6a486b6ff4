package fleet

import (
	"sync"

	"repro/internal/energy"
)

// execKey is what a device's execution depends on. The power system
// enters only through its execution key (energy.ExecKey): the capacitor
// alone decides where a run browns out, and the harvester only how long
// each recharge takes.
type execKey struct {
	model, runtime string
	power          energy.ExecKey
}

// execSlot is one entry of a campaign's execution table, simulated by
// the first device that reaches it.
type execSlot struct {
	once sync.Once
	ex   execution
	err  error
}

// newExecTable returns the campaign's execution table, indexed by
// position in the Models × Runtimes × Powers cross product: device i uses
// entry i mod len, and positions with equal execution keys share one
// entry. Validate bounds its length by MaxCombinations.
func newExecTable(s *Spec) []*execSlot {
	table := make([]*execSlot, len(s.Models)*len(s.Runtimes)*len(s.Powers))
	byKey := make(map[execKey]*execSlot, len(table))
	for k := range table {
		ds := s.Device(k)
		key := execKey{ds.Model, ds.Runtime, ds.Power.ExecKey()}
		if byKey[key] == nil {
			byKey[key] = new(execSlot)
		}
		table[k] = byKey[key]
	}
	return table
}

// device returns device ds's stats: those of its execution, which the
// first device to reach it simulates on its worker's pool, with the
// first-inference latency replayed on ds's own harvester — the live
// seconds plus the dead time of every recorded deficit at that
// harvester's power, summed in order exactly as the device's own
// recharges would have summed it.
func (c *Campaign) device(ds DeviceSpec, p *pool) (DeviceStats, error) {
	e := c.execs[ds.Index%len(c.execs)]
	e.once.Do(func() { e.ex, e.err = p.simulate(ds, c.models[ds.Model], c.rts[ds.Runtime]) })
	if e.err != nil {
		return DeviceStats{}, e.err
	}
	st := e.ex.st
	if st.Completed {
		h, err := ds.Power.NewHarvester(ds.HarvestSeed)
		if err != nil {
			return DeviceStats{}, err
		}
		st.FirstInferSec = e.ex.live + e.ex.tape.Dead(h)
	}
	return st, nil
}
