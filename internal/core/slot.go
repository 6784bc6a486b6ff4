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
type Slot struct {
	Dev *mcu.Device
	Img *Image

	tmpl               *Template
	framHint, sramHint *mem.DirtyPages
}

// NewSlot deploys the template's model onto dev, a new device configured
// the way every run on the slot needs it (WAR-armed, say). The deploy is
// deterministic, so the freshly deployed banks already equal the
// template's snapshots; the first Provision verifies that page by page
// (everything Deploy wrote is marked dirty) and later ones lean on the
// dirty tracking.
func (t *Template) NewSlot(dev *mcu.Device) (*Slot, error) {
	img, err := Deploy(dev, t.qm)
	if err != nil {
		return nil, err
	}
	return &Slot{
		Dev: dev, Img: img, tmpl: t,
		framHint: mem.NewDirtyPages(t.fram),
		sramHint: mem.NewDirtyPages(t.sram),
	}, nil
}

// Provision rewinds the slot to the template image and binds a fresh
// power system (mcu.Device.Reprovision), leaving the device
// indistinguishable — for everything a run can observe — from a freshly
// constructed, identically configured and freshly deployed one. It
// reports the page traffic of both banks' restores. A failed Provision
// (a run left the bank layout changed) leaves the slot unusable.
func (s *Slot) Provision(power energy.System) (mem.RestoreStats, error) {
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
