package core

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// Template is a model's deploy-once image: a scratch device is deployed a
// single time and its post-deploy FRAM and SRAM captured with the
// page-shared snapshot machinery. Deploy is a pure function of the model
// (executor choices only affect how inference runs, not the flashed
// image), so one template serves every runtime and power system, and its
// snapshots are immutable.
type Template struct {
	qm         *dnn.QuantModel
	fram, sram *mem.Snapshot
}

// NewTemplate deploys qm once onto a scratch device and snapshots the
// resulting banks.
func NewTemplate(qm *dnn.QuantModel) (*Template, error) {
	dev := mcu.New(energy.Continuous{})
	if _, err := Deploy(dev, qm); err != nil {
		return nil, err
	}
	return &Template{qm: qm, fram: dev.FRAM.Snapshot(nil, nil), sram: dev.SRAM.Snapshot(nil, nil)}, nil
}

// Slot is one pooled device: a device deployed once from a template's
// model, whose banks are thereafter rewound in place between runs. The
// mem.Memory objects, every *mem.Region, and therefore Img are stable for
// the slot's life; per-slot dirty-page hints remember which pages earlier
// runs touched, so steady-state rewinds copy only those. A slot serves
// one run at a time.
//
// A slot may also hold a runtime prepared on its image (Run): its
// regions follow the deployed ones in both banks, at the indices a device
// that deploys and then runs the runtime allocates them at, so a journal
// recorded on such a device replays onto the slot. They are not in the
// template's snapshots: Provision leaves them be, and the prepared
// runtime resets them at the start of each run.
type Slot struct {
	Dev *mcu.Device
	Img *Image
	// Run is the runtime prepared resident on Img (nil for a slot that
	// serves several runtimes, as fleet pools do).
	Run Prepared

	tmpl               *Template
	framHint, sramHint *mem.DirtyPages
	// regions holds the FRAM and SRAM region counts after deploy and
	// prepare: the layout every run must leave behind.
	regions [2]int
}

// NewSlot deploys the template's model onto dev, a new device configured
// the way every run on the slot needs it (WAR-armed, say), and, when rt
// is non-nil, prepares rt on the image and keeps it resident as Run. The
// deploy is deterministic, so the freshly deployed banks already equal
// the template's snapshots; the first Provision verifies that page by
// page (everything Deploy wrote is marked dirty) and later ones lean on
// the dirty tracking.
func (t *Template) NewSlot(dev *mcu.Device, rt Runtime) (*Slot, error) {
	img, err := Deploy(dev, t.qm)
	if err != nil {
		return nil, err
	}
	s := &Slot{
		Dev: dev, Img: img, tmpl: t,
		framHint: mem.NewDirtyPages(t.fram),
		sramHint: mem.NewDirtyPages(t.sram),
	}
	if rt != nil {
		if s.Run, err = rt.Prepare(img); err != nil {
			return nil, fmt.Errorf("core: preparing slot runtime: %w", err)
		}
	}
	s.regions = [2]int{dev.FRAM.Regions(), dev.SRAM.Regions()}
	return s, nil
}

// Provision rewinds the slot to the template image and binds a fresh
// power system (mcu.Device.Reprovision), leaving the device
// indistinguishable — for everything a run can observe — from a freshly
// constructed, identically configured and freshly deployed one on which
// Run was just prepared (Run's own reset covers its regions). It reports
// the page traffic of both banks' restores. A failed Provision (a run
// left the bank layout changed) leaves the slot unusable.
func (s *Slot) Provision(power energy.System) (mem.RestoreStats, error) {
	if n := [2]int{s.Dev.FRAM.Regions(), s.Dev.SRAM.Regions()}; n != s.regions {
		return mem.RestoreStats{}, fmt.Errorf("core: provisioning: banks hold %d FRAM and %d SRAM regions, slot layout has %d and %d",
			n[0], n[1], s.regions[0], s.regions[1])
	}
	fst, err := s.tmpl.fram.RestoreInPlace(s.Dev.FRAM, s.framHint)
	if err != nil {
		return mem.RestoreStats{}, fmt.Errorf("core: provisioning FRAM: %w", err)
	}
	sst, err := s.tmpl.sram.RestoreInPlace(s.Dev.SRAM, s.sramHint)
	if err != nil {
		return mem.RestoreStats{}, fmt.Errorf("core: provisioning SRAM: %w", err)
	}
	s.Dev.Reprovision(power)
	return mem.RestoreStats{
		Copied:  fst.Copied + sst.Copied,
		Clean:   fst.Clean + sst.Clean,
		Skipped: fst.Skipped + sst.Skipped,
	}, nil
}
