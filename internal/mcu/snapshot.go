package mcu

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/mem"
)

// DeviceSnapshot is a deterministic capture of the full simulated machine:
// both memory banks, the power system, all accounting (op counts, section
// stats, reboot/progress counters), the pending trace batch, and the
// in-flight WAR-shadow state. Restoring it rewinds the device bit-exactly,
// so a restored run continues identically to one that never stopped.
type DeviceSnapshot struct {
	fram, sram *mem.Snapshot
	power      energy.SystemState

	stats                Stats
	section              Section
	opsTotal             int64
	opsInRegion          int64
	rebootsSinceProgress int
	batchOps             int

	shadow        *mem.ShadowSnapshot
	warViolations []WARViolation
	warCount      int
}

// Snapshot captures the device's state between operations. The power
// system must implement energy.Snapshotter (all systems in this tree do).
// Snapshots are taken at op boundaries from host code — not from inside an
// Attempt's failure path.
func (d *Device) Snapshot() (*DeviceSnapshot, error) {
	snapper, ok := d.Power.(energy.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("mcu: power system %T does not support snapshots", d.Power)
	}
	s := &DeviceSnapshot{
		fram:                 d.FRAM.Snapshot(nil, nil),
		sram:                 d.SRAM.Snapshot(nil, nil),
		power:                snapper.SnapshotState(),
		stats:                cloneStats(&d.stats),
		section:              d.section,
		opsTotal:             d.opsNow(),
		opsInRegion:          d.opsInRegion,
		rebootsSinceProgress: d.rebootsSinceProgress,
		batchOps:             d.batchOps,
		warCount:             d.warCount,
		warViolations:        append([]WARViolation(nil), d.warViolations...),
	}
	if d.shadow != nil {
		s.shadow = d.shadow.Snapshot()
	}
	return s, nil
}

// Restore rewinds the device to a snapshot taken from it (or from a device
// with an identical memory layout and power-system type). The WAR shadow
// is restored only when both the snapshot and the device have one.
func (d *Device) Restore(s *DeviceSnapshot) error {
	if err := s.fram.RestoreTo(d.FRAM); err != nil {
		return err
	}
	if err := s.sram.RestoreTo(d.SRAM); err != nil {
		return err
	}
	if err := energy.RestoreState(d.Power, s.power); err != nil {
		return err
	}
	d.stats = cloneStats(&s.stats)
	d.opsTotal = s.opsTotal
	d.opsInRegion = s.opsInRegion
	d.rebootsSinceProgress = s.rebootsSinceProgress
	d.batchOps = s.batchOps
	d.warCount = s.warCount
	d.warViolations = append([]WARViolation(nil), s.warViolations...)
	d.secStats = nil
	d.memoLayer, d.memoStats = "", [numMemoPhases]*SectionStats{}
	d.statsGen++
	d.resyncNow()
	d.SetSection(s.section.Layer, s.section.Phase)
	if d.shadow != nil && s.shadow != nil {
		d.shadow.Restore(s.shadow)
	}
	return nil
}
