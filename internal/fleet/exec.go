package fleet

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/energy"
)

// tableKey keys a prototype's execution table. With the prototype's
// model it is all a device's execution depends on: the power system
// enters only through its execution key (energy.ExecKey), because the
// capacitor alone decides where a run browns out, and the harvester only
// how long each recharge takes.
type tableKey struct {
	runtime string
	power   energy.ExecKey
}

// execSlot is one entry of a prototype's execution table, simulated by
// the first device that reaches it, in whichever campaign. Its once
// makes concurrent campaigns wait on that one simulation. A slot holds
// nothing of the campaign that simulated it, so a finished campaign is
// freed while its executions stay in the table.
type execSlot struct {
	key  tableKey
	once sync.Once
	ex   execution
	err  error
}

// ExecStats counts a prototype's execution-table traffic: executions
// simulated into it, executions campaigns took from it that an earlier
// campaign had simulated (once per campaign and execution), and entries
// evicted by its LRU bound.
type ExecStats struct {
	Simulated int64 `json:"executions_simulated"`
	Reused    int64 `json:"executions_reused"`
	Evicted   int64 `json:"executions_evicted"`
}

// execTable is a prototype's execution table: one slot per (runtime,
// power execution key), shared by every campaign provisioned from the
// prototype and bounded to limit entries, least recently acquired first
// out. Evicting a slot only stops future sharing: campaigns that
// acquired it keep their pointer. Failed executions are dropped, never
// cached.
type execTable struct {
	mu    sync.Mutex
	limit int
	byKey map[tableKey]*list.Element // values *execSlot
	lru   list.List                  // front = most recently acquired
	stats ExecStats
}

func newExecTable(limit int) *execTable {
	return &execTable{limit: limit, byKey: make(map[tableKey]*list.Element)}
}

// acquire returns key's slot, creating it (and evicting the least
// recently acquired slot beyond the limit) if the table has none.
func (t *execTable) acquire(key tableKey) *execSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.byKey[key]; ok {
		t.lru.MoveToFront(el)
		return el.Value.(*execSlot)
	}
	e := &execSlot{key: key}
	t.byKey[key] = t.lru.PushFront(e)
	if t.lru.Len() > t.limit {
		old := t.lru.Back()
		delete(t.byKey, t.lru.Remove(old).(*execSlot).key)
		t.stats.Evicted++
	}
	return e
}

// simulated counts e's simulation and drops e if it failed, so the next
// campaign to reach its key simulates again.
func (t *execTable) simulated(e *execSlot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Simulated++
	if el, ok := t.byKey[e.key]; ok && e.err != nil && el.Value == e {
		t.lru.Remove(el)
		delete(t.byKey, e.key)
	}
}

func (t *execTable) reused() {
	t.mu.Lock()
	t.stats.Reused++
	t.mu.Unlock()
}

// ExecStats returns the prototype's execution-table counters.
func (p *Prototype) ExecStats() ExecStats {
	p.execs.mu.Lock()
	defer p.execs.mu.Unlock()
	return p.execs.stats
}

// execUse is a campaign's handle on one execution-table slot; every
// cross-product position with the slot's key shares it, and no other
// campaign sees it.
type execUse struct {
	slot  *execSlot
	proto *Prototype
	ran   bool        // a device of this campaign simulated the slot (set in its once)
	seen  atomic.Bool // a device of this campaign has taken the slot's result
}

// useKey names a slot: its prototype's table and its key there.
type useKey struct {
	proto *Prototype
	key   tableKey
}

// newExecUses returns the campaign's view of its prototypes' execution
// tables, indexed by position in the Models × Runtimes × Powers cross
// product: device i uses entry i mod len, and positions with the same
// slot share one entry. Each slot is acquired once, so a campaign shares
// its executions even when the table evicts them. Validate bounds the
// length by MaxCombinations.
func (c *Campaign) newExecUses() []*execUse {
	s := &c.spec
	uses := make([]*execUse, len(s.Models)*len(s.Runtimes)*len(s.Powers))
	byKey := make(map[useKey]*execUse, len(uses))
	for k := range uses {
		ds := s.Device(k)
		key := useKey{c.protos[ds.Model], tableKey{ds.Runtime, ds.Power.ExecKey()}}
		if byKey[key] == nil {
			byKey[key] = &execUse{slot: key.proto.execs.acquire(key.key), proto: key.proto}
		}
		uses[k] = byKey[key]
	}
	return uses
}

// device returns device ds's stats: those of its execution, which the
// first device to reach it simulates on its worker's pool, with the
// first-inference latency replayed on ds's own harvester — the live
// seconds plus the dead time of every recorded deficit at that
// harvester's power, summed in order exactly as the device's own
// recharges would have summed it. An execution another campaign
// simulated is taken as is; one that failed there is simulated again for
// ds, so the error names this campaign's device.
func (c *Campaign) device(ds DeviceSpec, p *pool) (DeviceStats, error) {
	u := c.execs[ds.Index%len(c.execs)]
	e, rt := u.slot, c.rts[ds.Runtime]
	ran := false
	e.once.Do(func() {
		ran, u.ran = true, true
		e.ex, e.err = p.simulate(ds, u.proto.model, rt)
	})
	ex, err := e.ex, e.err
	switch {
	case ran:
		u.proto.execs.simulated(e)
	case u.ran: // another device of this campaign simulated it
	case err != nil:
		ex, err = p.simulate(ds, u.proto.model, rt)
	case u.seen.CompareAndSwap(false, true):
		p.stats.Executions++
		u.proto.execs.reused()
	}
	if err != nil {
		return DeviceStats{}, err
	}
	st := ex.st
	if st.Completed {
		h, err := ds.Power.NewHarvester(ds.HarvestSeed)
		if err != nil {
			return DeviceStats{}, err
		}
		st.FirstInferSec = ex.live + ex.tape.Dead(h)
	}
	return st, nil
}
