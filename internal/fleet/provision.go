package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// Prototype is the deploy-once template for one model: a core.Template
// (the model deployed once onto a scratch device, its post-deploy banks
// snapshotted). Every pooled fleet device of that model is a core.Slot
// provisioned by restoring the snapshots in place instead of re-running
// Deploy, so one prototype serves every runtime and power class of a
// campaign.
//
// A prototype also owns the model's execution table, keyed by runtime
// and power execution key, so every campaign provisioned from one
// prototype shares its executions: a campaign that builds its own
// prototype shares them within itself, while a registry prototype (the
// serve model cache keeps one per model) shares them across every job
// over that model. The table is internally synchronized and bounded to
// MaxCombinations entries, least recently used first out, so a prototype
// is safe to share across campaigns and workers.
type Prototype struct {
	model Model
	tmpl  *core.Template
	execs *execTable
}

// NewPrototype deploys m once onto a scratch device and snapshots the
// resulting banks. Campaigns simulate with the prototype's own model, so
// a registry that sets Model.Proto must build it from that same model.
func NewPrototype(m Model) (*Prototype, error) {
	return newPrototype(m, MaxCombinations)
}

// newPrototype is NewPrototype with an execution-table bound of limit
// entries; the eviction oracles use small bounds.
func newPrototype(m Model, limit int) (*Prototype, error) {
	tmpl, err := core.NewTemplate(m.QM)
	if err != nil {
		return nil, fmt.Errorf("fleet: prototype deploy %s: %w", m.Net, err)
	}
	return &Prototype{model: m, tmpl: tmpl, execs: newExecTable(limit)}, nil
}

// ProvisionStats counts provisioning work across a campaign. It is
// observability, not results: slot counts depend on how many workers ran
// and what they were scheduled, and Restores and Executions on what
// earlier campaigns over the same prototypes left in their execution
// tables, so these counters live outside Aggregates and Summary and are
// excluded from every bit-identity oracle.
type ProvisionStats struct {
	Prototypes   int64 `json:"prototypes"`    // prototype deploys (one per campaign model, shared)
	SlotDeploys  int64 `json:"slot_deploys"`  // pool-slot cold deploys (≤ workers × models)
	Restores     int64 `json:"restores"`      // executions this campaign simulated, each provisioned by COW restore-in-place
	Executions   int64 `json:"executions"`    // executions this campaign reused from an earlier campaign on its prototypes
	PagesCopied  int64 `json:"pages_copied"`  // snapshot pages rewritten during restores
	PagesClean   int64 `json:"pages_clean"`   // pages compared and found untouched
	PagesSkipped int64 `json:"pages_skipped"` // pages skipped wholesale (region never written)
}

// Add accumulates b into a. The serve front-end folds each finished
// campaign's counters into its process-lifetime stats with it.
func (a *ProvisionStats) Add(b ProvisionStats) {
	a.Prototypes += b.Prototypes
	a.SlotDeploys += b.SlotDeploys
	a.Restores += b.Restores
	a.Executions += b.Executions
	a.PagesCopied += b.PagesCopied
	a.PagesClean += b.PagesClean
	a.PagesSkipped += b.PagesSkipped
}

// newSlot deploys a pool slot for p's model on a bare device, as fleet
// simulations run.
func newSlot(p *Prototype) (*core.Slot, error) {
	sl, err := p.tmpl.NewSlot(mcu.New(energy.Continuous{}), nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: slot deploy %s: %w", p.model.Net, err)
	}
	return sl, nil
}

// provision rewinds sl for one fleet simulation on power — leaving the
// device indistinguishable, for everything a simulation can observe, from
// a freshly deployed one (TestProvisionedFleetBitIdentical,
// TestPoolPurityAfterBrownOut) — turns on wasted-work tracking, and
// counts the restore into st.
func provision(sl *core.Slot, power energy.System, st *ProvisionStats) error {
	rs, err := sl.Provision(power)
	if err != nil {
		return err
	}
	sl.Dev.TrackWasted(true)
	st.Restores++
	st.PagesCopied += int64(rs.Copied)
	st.PagesClean += int64(rs.Clean)
	st.PagesSkipped += int64(rs.Skipped)
	return nil
}

// pool holds one worker's reusable devices, one slot per model, created
// lazily on first use. Pools are single-worker-owned and need no locks;
// their stats are folded into the campaign when the worker exits.
type pool struct {
	protos map[string]*Prototype
	slots  map[string]*core.Slot
	stats  ProvisionStats
}

func (c *Campaign) newPool() *pool {
	return &pool{protos: c.protos, slots: make(map[string]*core.Slot, len(c.protos))}
}

// execution is one distinct simulation: the stats of the device that ran
// it, its live seconds to the first inference, and the deficit tape of
// its recharges. Every device with the same prototype, runtime and power
// execution key shares it, in every campaign that reaches it while it is
// in the prototype's table (newExecUses).
type execution struct {
	st   DeviceStats
	live float64
	tape energy.DeficitTape
}

// simulate runs one execution on this worker's pool: device ds is
// provisioned into the model's slot with its own power system, recording
// deficits, and run to its first inference, bit-identically to a fresh
// deploy. A runtime panic becomes the returned error, naming the device,
// so one bad job cannot take down the process that runs it.
func (p *pool) simulate(ds DeviceSpec, m Model, rt core.Runtime) (ex execution, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fleet: device %d (%s/%s/%s): runtime panic: %v", ds.Index, m.Net, ds.Runtime, ds.Power.Name, r)
		}
	}()
	sl := p.slots[ds.Model]
	if sl == nil {
		if sl, err = newSlot(p.protos[ds.Model]); err != nil {
			return ex, err
		}
		p.slots[ds.Model] = sl
		p.stats.SlotDeploys++
	}
	power, err := ds.Power.New(ds.HarvestSeed)
	if err != nil {
		return ex, err
	}
	ip, _ := power.(*energy.Intermittent)
	if ip != nil {
		ip.RecordDeficits()
	}
	if err := provision(sl, power, &p.stats); err != nil {
		return ex, fmt.Errorf("fleet: device %d (%s): %w", ds.Index, m.Net, err)
	}
	if ex.st, err = runDevice(sl.Dev, sl.Img, ds, m, rt); err != nil {
		return ex, err
	}
	ex.live = sl.Dev.Stats().LiveSeconds(sl.Dev.Cost.ClockHz)
	if ip != nil {
		ex.tape = ip.Deficits()
	}
	return ex, nil
}
