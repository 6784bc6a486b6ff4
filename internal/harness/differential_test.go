package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
)

// oracleRuntimes is every runtime the differential oracles cover: the six
// Fig. 9 implementations plus the checkpoint baseline.
func oracleRuntimes() []core.Runtime {
	return append(Runtimes(), checkpoint.Checkpoint{Interval: 8})
}

// diffObservation is everything a run makes observable: the logits, the
// completion outcome, the full device statistics, and the WAR shadow
// verdict. The bulk-charge fast path must reproduce all of it bit-for-bit.
type diffObservation struct {
	Logits   []fixed.Q15
	DNC      bool
	Err      string
	Stats    mcu.Stats
	WARCount int
	WARs     []mcu.WARViolation
}

// diffRun executes one inference on a fresh device and captures the full
// observation. An energy.PerOp power selects the reference path.
func diffRun(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15,
	rt core.Runtime, power energy.System) diffObservation {
	t.Helper()
	dev := mcu.New(power)
	dev.EnableWARCheck()
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	logits, ierr := rt.Infer(img, qin)
	obs := diffObservation{
		Logits:   logits,
		Stats:    *dev.Stats(),
		WARCount: dev.WARCount(),
		WARs:     dev.WARViolations(),
	}
	if ierr != nil {
		if errors.Is(ierr, mcu.ErrDoesNotComplete) {
			obs.DNC = true
		} else {
			obs.Err = ierr.Error()
		}
	}
	return obs
}

// diffCompare asserts two observations are bit-identical, field by field so
// a divergence names what broke rather than dumping two structs.
func diffCompare(t *testing.T, label string, fast, scalar diffObservation) {
	t.Helper()
	if !reflect.DeepEqual(fast.Logits, scalar.Logits) {
		t.Errorf("%s: logits diverge: fast=%v scalar=%v", label, fast.Logits, scalar.Logits)
	}
	if fast.DNC != scalar.DNC || fast.Err != scalar.Err {
		t.Errorf("%s: outcome diverges: fast=(dnc=%v err=%q) scalar=(dnc=%v err=%q)",
			label, fast.DNC, fast.Err, scalar.DNC, scalar.Err)
	}
	fs, ss := fast.Stats, scalar.Stats
	if fs.LiveCycles != ss.LiveCycles {
		t.Errorf("%s: LiveCycles: fast=%d scalar=%d", label, fs.LiveCycles, ss.LiveCycles)
	}
	if fs.EnergyPJ != ss.EnergyPJ {
		t.Errorf("%s: EnergyPJ: fast=%d scalar=%d", label, fs.EnergyPJ, ss.EnergyPJ)
	}
	if fs.DeadSeconds != ss.DeadSeconds {
		t.Errorf("%s: DeadSeconds: fast=%v scalar=%v", label, fs.DeadSeconds, ss.DeadSeconds)
	}
	if fs.Reboots != ss.Reboots {
		t.Errorf("%s: Reboots: fast=%d scalar=%d", label, fs.Reboots, ss.Reboots)
	}
	if fs.OpCount != ss.OpCount {
		t.Errorf("%s: OpCount: fast=%v scalar=%v", label, fs.OpCount, ss.OpCount)
	}
	if fs.OpEnergyPJ != ss.OpEnergyPJ {
		t.Errorf("%s: OpEnergyPJ: fast=%v scalar=%v", label, fs.OpEnergyPJ, ss.OpEnergyPJ)
	}
	if fs.MaxRegionOps != ss.MaxRegionOps {
		t.Errorf("%s: MaxRegionOps: fast=%d scalar=%d", label, fs.MaxRegionOps, ss.MaxRegionOps)
	}
	if !reflect.DeepEqual(fs.Sections, ss.Sections) {
		t.Errorf("%s: per-section stats diverge", label)
	}
	if fast.WARCount != scalar.WARCount || !reflect.DeepEqual(fast.WARs, scalar.WARs) {
		t.Errorf("%s: WAR verdict diverges: fast=%d scalar=%d",
			label, fast.WARCount, scalar.WARCount)
	}
}

// TestBulkScalarDifferential is the bulk-charge fast path's oracle: for
// every runtime (oracleRuntimes), under continuous power and 50 fuzzed
// brown-out schedules each, a run with the O(1) batched charging must be
// bit-identical — logits, cycles, integer-picojoule energy, per-op counts,
// per-section stats, MaxRegionOps, reboot count, and WAR shadow verdicts —
// to the same run on the energy.PerOp reference path, which charges every
// op one at a time through the power system's interface.
//
// This test is the safety net for the whole optimization and must never be
// skipped (CI greps for its presence in -v output).
func TestBulkScalarDifferential(t *testing.T) {
	const fuzzedSchedules = 50
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)

	for _, rt := range oracleRuntimes() {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			// Continuous power: the pure compute path, no reboots.
			fast := diffRun(t, qm, qin, rt, energy.Continuous{})
			scalar := diffRun(t, qm, qin, rt, energy.PerOp{S: energy.Continuous{}})
			diffCompare(t, "cont", fast, scalar)

			// Fuzzed brown-out schedules. Gaps sit above the runtime's
			// liveness floor (twice the largest atomic region, so each
			// charge cycle can commit) but are otherwise random, then a
			// tail of tight gaps stresses repeated reboot/replay paths.
			totalOps := int64(0)
			for _, n := range fast.Stats.OpCount {
				totalOps += n
			}
			floor := int(2*fast.Stats.MaxRegionOps) + 50
			rng := rand.New(rand.NewPCG(0xd1ff, uint64(totalOps)))
			for s := 0; s < fuzzedSchedules; s++ {
				gaps := make([]int, 1+rng.IntN(4))
				for i := range gaps {
					gaps[i] = floor + rng.IntN(int(totalOps))
				}
				if s%5 == 4 {
					// Every fifth schedule: gaps near the floor, maximizing
					// reboot count and mid-kernel brown-out coverage.
					for i := range gaps {
						gaps[i] = floor + rng.IntN(floor)
					}
				}
				label := fmt.Sprintf("sched%02d%v", s, gaps)
				fast := diffRun(t, qm, qin, rt, energy.NewFailSchedule(gaps))
				scalar := diffRun(t, qm, qin, rt, energy.PerOp{S: energy.NewFailSchedule(gaps)})
				diffCompare(t, label, fast, scalar)
			}
		})
	}
}
