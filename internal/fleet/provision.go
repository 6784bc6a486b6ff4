package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// Prototype is the deploy-once template for one model: a scratch device is
// deployed a single time and its post-deploy FRAM/SRAM captured with the
// page-shared snapshot machinery. Every pooled fleet device of that model
// is then provisioned by restoring the snapshots in place instead of
// re-running Deploy. Deploy is a pure function of the model (executor
// choices — tape, fusion — only affect how inference runs, not the
// flashed image), so one prototype serves every runtime and power class
// of a campaign, and prototypes are immutable and safe to share across
// campaigns and workers.
type Prototype struct {
	model      Model
	fram, sram *mem.Snapshot
}

// NewPrototype deploys m once onto a scratch device and snapshots the
// resulting banks.
func NewPrototype(m Model) (*Prototype, error) {
	dev := mcu.New(energy.Continuous{})
	if _, err := core.Deploy(dev, m.QM); err != nil {
		return nil, fmt.Errorf("fleet: prototype deploy %s: %w", m.Net, err)
	}
	return &Prototype{model: m, fram: dev.FRAM.Snapshot(nil, nil), sram: dev.SRAM.Snapshot(nil, nil)}, nil
}

// ProvisionStats counts provisioning work across a campaign. It is
// observability, not results: slot counts depend on how many workers ran
// and what they were scheduled, so these counters live outside Aggregates
// and Summary and are excluded from every bit-identity oracle.
type ProvisionStats struct {
	Prototypes   int64 `json:"prototypes"`    // prototype deploys (one per campaign model, shared)
	SlotDeploys  int64 `json:"slot_deploys"`  // pool-slot cold deploys (≤ workers × models)
	Restores     int64 `json:"restores"`      // devices provisioned by COW restore-in-place
	FreshDeploys int64 `json:"fresh_deploys"` // devices provisioned by full fresh deploy
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
	a.FreshDeploys += b.FreshDeploys
	a.PagesCopied += b.PagesCopied
	a.PagesClean += b.PagesClean
	a.PagesSkipped += b.PagesSkipped
}

// Slot is one pooled device: a device deployed once from a prototype's
// model, whose banks are thereafter rewound by restore-in-place between
// simulations. The mem.Memory objects, every *mem.Region, and therefore
// the Image are stable for the slot's life; per-slot dirty-page hints
// remember which pages previous runs touched so steady-state restores
// copy only those. Exported so cmd/bench can A/B the provisioning path
// (fresh mcu.New + Deploy vs Provision) in isolation.
type Slot struct {
	proto    *Prototype
	dev      *mcu.Device
	img      *core.Image
	framHint *mem.DirtyPages
	sramHint *mem.DirtyPages
}

// NewSlot deploys the slot's own device. The deploy is deterministic, so
// the freshly deployed banks already equal the prototype snapshots — the
// first restore verifies that page by page (everything Deploy wrote is
// marked dirty) and later ones lean on the dirty tracking.
func NewSlot(p *Prototype) (*Slot, error) {
	dev := mcu.New(energy.Continuous{})
	img, err := core.Deploy(dev, p.model.QM)
	if err != nil {
		return nil, fmt.Errorf("fleet: slot deploy %s: %w", p.model.Net, err)
	}
	return &Slot{
		proto: p, dev: dev, img: img,
		framHint: mem.NewDirtyPages(p.fram),
		sramHint: mem.NewDirtyPages(p.sram),
	}, nil
}

// Provision rewinds the slot to the prototype image and binds a fresh
// power system, leaving the device indistinguishable — for everything a
// simulation can observe — from a freshly constructed, freshly deployed
// one (TestProvisionedFleetBitIdentical, TestPoolPurityAfterBrownOut).
func (s *Slot) Provision(power energy.System, scalar bool, st *ProvisionStats) error {
	fst, err := s.proto.fram.RestoreInPlace(s.dev.FRAM, s.framHint)
	if err != nil {
		return fmt.Errorf("fleet: provisioning %s FRAM: %w", s.proto.model.Net, err)
	}
	sst, err := s.proto.sram.RestoreInPlace(s.dev.SRAM, s.sramHint)
	if err != nil {
		return fmt.Errorf("fleet: provisioning %s SRAM: %w", s.proto.model.Net, err)
	}
	s.dev.Reprovision(power)
	s.dev.Scalar = scalar
	s.dev.TrackWasted(true)
	st.Restores++
	st.PagesCopied += int64(fst.Copied + sst.Copied)
	st.PagesClean += int64(fst.Clean + sst.Clean)
	st.PagesSkipped += int64(fst.Skipped + sst.Skipped)
	return nil
}

// pool holds one worker's reusable devices, one slot per model, created
// lazily on first use. Pools are single-worker-owned and need no locks;
// their stats are folded into the campaign when the worker exits.
type pool struct {
	fresh  bool // Spec.Fresh: bypass slots, fully re-deploy every device
	protos map[string]*Prototype
	slots  map[string]*Slot
	stats  ProvisionStats
}

func (c *Campaign) newPool() *pool {
	return &pool{fresh: c.spec.Fresh, protos: c.protos, slots: make(map[string]*Slot, len(c.protos))}
}

// simulate runs one device instance through this worker's pool — or, for
// a Fresh campaign, through the fresh-deploy path — and extracts its
// stats. Pooled and fresh simulations are bit-identical.
func (p *pool) simulate(ds DeviceSpec, m Model, rt core.Runtime, scalar bool) (DeviceStats, error) {
	if p.fresh {
		p.stats.FreshDeploys++
		return simulate(ds, m, rt, scalar)
	}
	sl := p.slots[ds.Model]
	if sl == nil {
		var err error
		if sl, err = NewSlot(p.protos[ds.Model]); err != nil {
			return DeviceStats{}, err
		}
		p.slots[ds.Model] = sl
		p.stats.SlotDeploys++
	}
	power, err := ds.Power.New(ds.HarvestSeed)
	if err != nil {
		return DeviceStats{}, err
	}
	if err := sl.Provision(power, scalar, &p.stats); err != nil {
		return DeviceStats{}, fmt.Errorf("fleet: device %d: %w", ds.Index, err)
	}
	return runDevice(sl.dev, sl.img, ds, m, rt)
}
