package harness

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/sonic"
	"repro/internal/tails"
	"repro/internal/trace"
)

// PowerSpec names a power system and builds fresh instances of it. The
// declarative energy.SystemSpec is the single source of truth for what
// the system is — the same vocabulary fleet campaigns and the serving API
// use — so the Fig. 9 harness, the CLIs, and fleet specs can no longer
// drift apart on capacitor sizes or harvester parameters. Seed feeds the
// harvester RNG of stochastic systems; deterministic systems ignore it,
// so the zero value is fine for the paper's RF bank.
type PowerSpec struct {
	Name string
	Seed uint64
	// Spec declares the power system (capacitor, harvester class, params).
	Spec energy.SystemSpec
	// New, when non-nil, overrides Spec for systems the declarative
	// vocabulary cannot express — e.g. test-only fault injectors.
	New func(seed uint64) energy.System
}

// Make builds a fresh instance of the power system from the spec's seed.
func (p PowerSpec) Make() energy.System {
	if p.New != nil {
		return p.New(p.Seed)
	}
	sys, err := p.Spec.New(p.Seed)
	if err != nil {
		// Powers()/StochasticPowers() only hand out valid specs; a bad
		// hand-rolled spec is a programming error, not a runtime condition.
		panic("harness: power spec " + p.Name + ": " + err.Error())
	}
	return sys
}

// Powers returns the paper's four power systems (§8): continuous, and RF
// harvesting with 50 mF, 1 mF, and 100 µF capacitor banks.
func Powers() []PowerSpec {
	return []PowerSpec{
		{Name: "cont", Spec: energy.SystemSpec{Kind: "cont"}},
		{Name: "50mF", Spec: energy.SystemSpec{Kind: "const", CapFarads: 50e-3}},
		{Name: "1mF", Spec: energy.SystemSpec{Kind: "const", CapFarads: 1e-3}},
		{Name: "100uF", Spec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
	}
}

// StochasticPowers returns variable-harvest power systems whose RNG
// sequences are fully determined by seed, so stochastic runs — and their
// traces — reproduce from one CLI value: a lognormally-varying RF
// harvester on the 100 µF and 1 mF banks, and a diurnal solar harvester
// on the 100 µF bank.
func StochasticPowers(seed uint64) []PowerSpec {
	return []PowerSpec{
		{Name: "stoch-100uF", Seed: seed, Spec: energy.SystemSpec{Kind: "stoch", CapFarads: 100e-6}},
		{Name: "stoch-1mF", Seed: seed, Spec: energy.SystemSpec{Kind: "stoch", CapFarads: 1e-3}},
		{Name: "solar-100uF", Seed: seed, Spec: energy.SystemSpec{Kind: "solar", CapFarads: 100e-6, Watts: 5e-3}},
	}
}

// Runtimes returns the six implementations of Fig. 9: the naive baseline,
// three Alpaca tilings, SONIC, and TAILS.
func Runtimes() []core.Runtime {
	return []core.Runtime{
		baseline.Base{},
		baseline.Tile{TileSize: 8},
		baseline.Tile{TileSize: 32},
		baseline.Tile{TileSize: 128},
		sonic.SONIC{},
		tails.TAILS{},
	}
}

// RunResult is one measured (network, runtime, power) cell.
type RunResult struct {
	Net, Runtime, Power string
	Completed           bool

	LiveSec   float64
	DeadSec   float64
	SteadySec float64 // live + consumed-energy/harvest-power (see below)
	EnergyMJ  float64
	Reboots   int
	Predicted int

	// Wasted-work aggregates, read from the device's Stats by RunAll and
	// MeasureTraced (Measure leaves them zero): durable commits, and the
	// re-executed cycles/energy between each charge cycle's last commit
	// and its brown-out.
	Commits        int
	WastedCycles   int64
	WastedEnergyNJ float64

	Sections map[mcu.Section]*mcu.SectionStats
	OpEnergy [mcu.NumOps]float64
	OpCount  [mcu.NumOps]int64
	ClockHz  float64
}

// Measure deploys the model on a fresh device with the given power system
// and runs one inference under the given runtime. It reports the cell
// without its wasted-work aggregates: Commits, WastedCycles and
// WastedEnergyNJ stay zero, as RunAll's cells read them.
//
// SteadySec reports the steady-state inference time: live time plus the
// dead time implied by harvesting every consumed joule at the RF
// harvester's power. A single simulated run starts from a charged
// capacitor — free energy that large banks would amortize over many
// inferences — so the steady-state figure is what the paper's repeated
// measurements observe. For continuous power SteadySec equals live time.
func Measure(net string, qm *dnn.QuantModel, rt core.Runtime, p PowerSpec, input []fixed.Q15) (RunResult, error) {
	res, _, err := measure(net, qm, rt, p, input, nil)
	res.Commits, res.WastedCycles, res.WastedEnergyNJ = 0, 0, 0
	return res, err
}

// MeasureTraced is Measure with the wasted-work aggregates filled in and
// execution tracing enabled: events are recorded into buf (a fresh small
// ring if nil), and the returned Analysis gives the full per-charge-cycle
// breakdown, exact even when the ring overwrote old events. A buffer
// subscribed only to trace.AnalysisKinds (trace.NewAnalysisBuffer) keeps
// the fused kernels engaged; a fully-subscribed one runs the scalar path.
func MeasureTraced(net string, qm *dnn.QuantModel, rt core.Runtime, p PowerSpec,
	input []fixed.Q15, buf *trace.Buffer) (RunResult, *trace.Analysis, error) {
	if buf == nil {
		buf = trace.NewBuffer(4096)
	}
	res, _, err := measure(net, qm, rt, p, input, buf)
	return res, buf.Analysis(), err
}

// measure is the one measurement path behind Measure, MeasureTraced and
// RunAll. The oracles reach the energy.PerOp reference path through it
// with a PowerSpec whose New wraps the power system; tracer may be nil.
func measure(net string, qm *dnn.QuantModel, rt core.Runtime, p PowerSpec,
	input []fixed.Q15, tracer *trace.Buffer) (RunResult, []fixed.Q15, error) {
	dev := mcu.New(p.Make())
	if tracer != nil {
		dev.SetTracer(tracer)
	}
	img, err := core.Deploy(dev, qm)
	if err != nil {
		return RunResult{}, nil, fmt.Errorf("harness: deploy %s: %w", net, err)
	}
	logits, ierr := rt.Infer(img, input)
	if tracer != nil {
		// Runtimes flush on success; cover the DNC path too. Detached,
		// Finish's stats handover traces no section change.
		dev.FlushTrace()
		dev.SetTracer(nil)
	}
	o, err := core.Finish(dev, logits, ierr)
	st := o.Stats
	res := RunResult{Net: net, Runtime: rt.Name(), Power: p.Name, ClockHz: dev.Cost.ClockHz}
	res.LiveSec = st.LiveSeconds(dev.Cost.ClockHz)
	res.DeadSec = st.DeadSeconds
	res.EnergyMJ = st.EnergyMJ()
	res.Reboots = st.Reboots
	res.SteadySec = res.LiveSec
	if p.Name != "cont" {
		res.SteadySec += st.EnergyNJ() * 1e-9 / harvestWatts(dev.Power)
	}
	res.Commits, res.WastedCycles, res.WastedEnergyNJ = st.Commits, st.WastedCycles, st.WastedNJ
	res.Sections = st.Sections
	res.OpEnergy = st.OpEnergy()
	res.OpCount = st.OpCount
	if err != nil || o.DNC {
		return res, logits, err
	}
	res.Completed = true
	res.Predicted = core.Argmax(logits)
	return res, logits, nil
}

// harvestWatts returns the harvest power used to amortize recharging into
// SteadySec: the power system's *observed* mean harvest (recharged energy
// over measured dead time) whenever the run recharged at least once, and
// the nominal RF constant otherwise. Using the constant for every
// non-continuous power was a bug: for solar or stochastic harvesters the
// observed mean differs from the RF figure by up to an order of magnitude,
// and the steady-state amortization must reflect what the run actually
// harvested.
func harvestWatts(p energy.System) float64 {
	if op, ok := p.(interface{ ObservedHarvestW() float64 }); ok {
		if w := op.ObservedHarvestW(); w > 0 {
			return w
		}
	}
	return energy.DefaultRFWatts
}

// LayerSections aggregates a run's sections by layer label, returning
// (layer -> phase -> energy nJ) and the ordered layer labels seen.
func LayerSections(res RunResult) (map[string]map[mcu.Phase]float64, []string) {
	agg := make(map[string]map[mcu.Phase]float64)
	for sec, st := range res.Sections {
		m := agg[sec.Layer]
		if m == nil {
			m = make(map[mcu.Phase]float64)
			agg[sec.Layer] = m
		}
		m[sec.Phase] += st.EnergyNJ()
	}
	order := []string{"conv1", "conv2", "conv3", "fc", "other", "boot"}
	var present []string
	for _, l := range order {
		if _, ok := agg[l]; ok {
			present = append(present, l)
		}
	}
	return agg, present
}
