// Package energy models the power side of an energy-harvesting system: a
// capacitor that buffers harvested energy between an operating threshold
// and a brown-out threshold, and harvesters that refill it (constant-power
// RF, stochastic RF, and a diurnal solar trace).
//
// It also provides one deterministic fault-injection source, FailSchedule,
// used by the correctness tests: it cuts power after exact numbers of
// operations, so failures can be placed at chosen instruction boundaries.
//
// All energies are in nanojoules (nJ) and times in seconds.
package energy

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// System supplies energy to a device. ConsumeN is the one charge entry
// point: the device model calls it with a batch of equally priced
// operations (a single op is a batch of one) and learns how many were
// funded. Recharge refills the buffer and returns the time spent dead.
type System interface {
	// ConsumeN charges up to n operations of pj integer picojoules each,
	// in order, and returns how many were funded. A short batch (the
	// return value < n) also charges the failing op, whose effects must
	// not be observed: after the call the system's state is exactly what
	// n sequential one-op charges, stopped at the first failure, would
	// have left. Every implementation in this package is analytic, O(1)
	// per call, which is what makes O(1)-per-kernel-loop accounting
	// possible.
	ConsumeN(pj int64, n int) int
	// Recharge refills the buffer after a failure and returns dead time
	// in seconds.
	Recharge() float64
}

// pjOf converts a nanojoule cost to integer picojoules. All capacitor
// accounting is done in integer pJ so that n sequential subtractions and
// one n-fold subtraction are the same arithmetic — the associativity the
// bulk path's bit-exactness guarantee rests on (float64 accumulation is
// order-sensitive; int64 is not). The cost model's resolution is 0.1 nJ,
// far above 1 pJ, so the quantization is lossless for op costs.
func pjOf(e float64) int64 { return int64(math.Round(e * 1000)) }

// PicojoulesOf converts a nanojoule figure to the integer picojoules this
// package accounts in — exposed so callers quantize op costs with the
// same rounding the capacitor applies to its own buffer size.
func PicojoulesOf(e float64) int64 { return pjOf(e) }

// Continuous is mains-like power: never fails.
type Continuous struct{}

// ConsumeN funds every op.
func (Continuous) ConsumeN(_ int64, n int) int { return n }

// Recharge is never needed and returns 0.
func (Continuous) Recharge() float64 { return 0 }

// PerOp is the reference power system the differential oracles compare
// every fast path against: it charges S one op at a time. It is not one of
// the kinds the device model devirtualizes, so a device on PerOp never
// fuses and pays the interface call on every op.
type PerOp struct{ S System }

// ConsumeN makes n one-op S.ConsumeN(pj, 1) calls, stopping at the first
// failure.
func (p PerOp) ConsumeN(pj int64, n int) int {
	for i := 0; i < n; i++ {
		if p.S.ConsumeN(pj, 1) == 0 {
			return i
		}
	}
	return n
}

// Recharge forwards to S.
func (p PerOp) Recharge() float64 { return p.S.Recharge() }

// ObservedHarvestW forwards to S, reporting 0 when S observes nothing.
func (p PerOp) ObservedHarvestW() float64 {
	if o, ok := p.S.(interface{ ObservedHarvestW() float64 }); ok {
		return o.ObservedHarvestW()
	}
	return 0
}

// Capacitor models an energy buffer charged to VOn and usable down to VOff:
// usable energy = ½C(VOn² − VOff²).
type Capacitor struct {
	C    float64 // Farads
	VOn  float64 // operating (turn-on) voltage
	VOff float64 // brown-out voltage
}

// UsableNJ returns the usable buffered energy in nanojoules.
func (c Capacitor) UsableNJ() float64 {
	return 0.5 * c.C * (c.VOn*c.VOn - c.VOff*c.VOff) * 1e9
}

// UsablePJ returns the usable buffered energy in the integer picojoules
// an Intermittent accounts in.
func (c Capacitor) UsablePJ() int64 { return pjOf(c.UsableNJ()) }

// CapBank returns a capacitor bank of the paper's evaluated sizes (§8:
// 100 µF, 1 mF, 50 mF) with the narrow unregulated operating window of
// MSP430-class energy-harvesting frontends (turn-on 1.88 V, brown-out
// 1.8 V). The resulting 100 µF usable buffer (~14.7 µJ, several thousand
// simulated operations) is the calibration point that reproduces the
// paper's completion matrix: SONIC/TAILS and Tile-8 always complete,
// Tile-128 exceeds the buffer and never terminates, and the unprotected
// baseline cannot finish an inference within one charge.
func CapBank(farads float64) Capacitor {
	return Capacitor{C: farads, VOn: 1.88, VOff: 1.8}
}

// Named capacitor sizes from the paper's methodology.
var (
	Cap100uF = CapBank(100e-6)
	Cap1mF   = CapBank(1e-3)
	Cap50mF  = CapBank(50e-3)
)

// Harvester produces power. PowerW may vary call to call (stochastic or
// trace-driven harvesters); calls are made once per recharge.
type Harvester interface {
	PowerW() float64
}

// ConstantHarvester supplies fixed power, e.g. an RF harvester at a fixed
// distance from its transmitter.
type ConstantHarvester struct{ Watts float64 }

// PowerW returns the fixed harvest power.
func (h ConstantHarvester) PowerW() float64 { return h.Watts }

// DefaultRFWatts approximates a Powercast P2110B harvester ~1 m from a 3 W
// transmitter: a few milliwatts of DC output.
const DefaultRFWatts = 3e-3

// StochasticHarvester models RF harvest with multiplicative lognormal
// variation around a mean, as seen with antenna orientation and multipath
// changes between charge cycles.
type StochasticHarvester struct {
	Mean  float64 // Watts
	Sigma float64 // lognormal sigma, e.g. 0.3
	rng   *rand.Rand
}

// mixSeed derives the second PCG state word from the caller's seed
// (SplitMix64 finalizer). Both RNG words come from the one seed callers
// plumb down — e.g. from harness.PowerSpec and the CLI — so a run is
// reproducible from that single value, with no hidden stream constants.
func mixSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStochasticHarvester returns a seeded stochastic harvester. The seed
// fully determines the power sequence.
func NewStochasticHarvester(mean, sigma float64, seed uint64) *StochasticHarvester {
	return &StochasticHarvester{Mean: mean, Sigma: sigma, rng: rand.New(rand.NewPCG(seed, mixSeed(seed)))}
}

// PowerW samples the harvest power for one charge cycle.
func (h *StochasticHarvester) PowerW() float64 {
	return h.Mean * math.Exp(h.rng.NormFloat64()*h.Sigma-h.Sigma*h.Sigma/2)
}

// SolarHarvester models a small solar array whose output follows a diurnal
// half-sine: zero at night, peaking at noon. Each recharge advances an
// internal clock by the dead time of the previous cycle; for simplicity the
// phase is sampled pseudo-randomly per recharge, representing deployments
// that run at arbitrary times of day.
type SolarHarvester struct {
	Peak float64 // Watts at noon
	rng  *rand.Rand
}

// NewSolarHarvester returns a seeded solar harvester. The seed fully
// determines the power sequence.
func NewSolarHarvester(peak float64, seed uint64) *SolarHarvester {
	return &SolarHarvester{Peak: peak, rng: rand.New(rand.NewPCG(seed, mixSeed(^seed)))}
}

// PowerW samples the harvest power at a random time of day (clamped to a
// small floor so recharge always completes).
func (h *SolarHarvester) PowerW() float64 {
	t := h.rng.Float64() // fraction of a day
	p := h.Peak * math.Max(0, math.Sin(t*2*math.Pi))
	if p < h.Peak*0.01 {
		p = h.Peak * 0.01
	}
	return p
}

// Intermittent is a capacitor-buffered harvesting power system. The buffer
// level is tracked in integer picojoules (see pjOf) so the bulk path's
// n-fold subtraction is bit-identical to n scalar subtractions.
//
// Only the capacitor decides which ops are funded: Recharge always refills
// to the usable energy, and the harvester sets nothing but the dead time.
// So an op stream runs identically on every Intermittent with the same
// usable energy (ExecKey), and a run's dead time on any harvester follows
// from its deficit tape (RecordDeficits, DeficitTape.Dead).
type Intermittent struct {
	Cap       Capacitor
	Harvester Harvester

	remainingPJ int64
	usablePJ    int64
	harvestedNJ float64
	deadSec     float64
	recording   bool
	tape        DeficitTape
}

// NewIntermittent returns a power system with the capacitor fully charged.
func NewIntermittent(c Capacitor, h Harvester) *Intermittent {
	p := &Intermittent{Cap: c, Harvester: h}
	p.Reset()
	return p
}

// ConsumePJ charges one op of pj picojoules and reports whether it was
// funded: ConsumeN(pj, 1) == 1 without the division. It is a concrete
// method, not part of System, so the device model's devirtualized
// per-op charge inlines to one integer subtract.
func (p *Intermittent) ConsumePJ(pj int64) bool {
	p.remainingPJ -= pj
	return p.remainingPJ >= 0
}

// ConsumeN drains up to n ops of dec picojoules analytically: the funded
// count is floor(remaining/dec), and a partial batch also charges the
// failing op, exactly as n sequential ConsumePJ calls would.
func (p *Intermittent) ConsumeN(dec int64, n int) int {
	if dec <= 0 {
		if p.remainingPJ >= 0 {
			return n
		}
		return 0
	}
	if p.remainingPJ < 0 {
		p.remainingPJ -= dec
		return 0
	}
	funded := p.remainingPJ / dec
	if funded >= int64(n) {
		p.remainingPJ -= int64(n) * dec
		return n
	}
	p.remainingPJ -= (funded + 1) * dec
	return int(funded)
}

// FundWhole funds up to n whole blocks of unitPJ picojoules each and
// returns the funded count: floor(remaining/unitPJ), charging only the
// funded blocks and never a partial one. The fused-kernel fast path uses
// it to execute exactly the funded prefix of a uniform loop in bulk and
// hand the first unfunded iteration back to the scalar path, which then
// charges op by op and browns out at the identical op index — so the
// failing iteration's partial consumption (and with it the recharge
// deficit and dead time) is produced by the same code on both paths.
func (p *Intermittent) FundWhole(unitPJ int64, n int) int {
	m := p.Whole(unitPJ, n)
	if unitPJ > 0 {
		p.remainingPJ -= int64(m) * unitPJ
	}
	return m
}

// Whole is FundWhole's count without the drain: how many whole blocks of
// unitPJ picojoules, up to n, the capacitor could fund now.
func (p *Intermittent) Whole(unitPJ int64, n int) int {
	if p.remainingPJ < 0 {
		return 0
	}
	if unitPJ <= 0 {
		return n
	}
	return int(min(p.remainingPJ/unitPJ, int64(n)))
}

// Recharge refills the capacitor and returns the dead time, computed from
// the harvester's power for this cycle.
func (p *Intermittent) Recharge() float64 {
	deficitPJ := p.usablePJ - max(p.remainingPJ, 0)
	p.remainingPJ = p.usablePJ
	if p.recording {
		p.tape = p.tape.add(deficitPJ)
	}
	d := DeadTime(deficitPJ, p.Harvester.PowerW())
	p.harvestedNJ += float64(deficitPJ) * 1e-3
	p.deadSec += d
	return d
}

// DeadTime is the time in seconds a harvester delivering w watts takes to
// refill deficitPJ picojoules. Recharge and DeficitTape.Dead both evaluate
// it, so a replayed dead time is bit-identical to the recharged one.
func DeadTime(deficitPJ int64, w float64) float64 {
	if w <= 0 {
		panic("energy: harvester produced non-positive power")
	}
	return float64(deficitPJ) * 1e-3 * 1e-9 / w
}

// RecordDeficits starts recording the deficit tape, empty. Recording is
// off by default, so runs that never read the tape never grow it.
func (p *Intermittent) RecordDeficits() {
	p.recording = true
	p.tape = nil
}

// Deficits returns the deficits recorded since RecordDeficits or the last
// Reset.
func (p *Intermittent) Deficits() DeficitTape { return p.tape }

// DeficitTape is the sequence of deficits an Intermittent's recharges
// refilled, in order, run-length encoded. The device model browns out
// only on an op the capacitor cannot fund, which leaves it empty, so a
// device run's tape is one run of its reboot count at the usable energy.
type DeficitTape []deficitRun

// deficitRun is n consecutive recharges of pj picojoules each.
type deficitRun struct {
	pj int64
	n  int
}

func (t DeficitTape) add(pj int64) DeficitTape {
	if k := len(t); k > 0 && t[k-1].pj == pj {
		t[k-1].n++
		return t
	}
	return append(t, deficitRun{pj: pj, n: 1})
}

// Dead replays the tape on h: DeadTime of every deficit at h's power for
// that cycle, summed in order from zero. On a harvester that draws the
// same power sequence as the recording run's, it bit-equals the sum of
// that run's Recharge returns.
func (t DeficitTape) Dead(h Harvester) float64 {
	var dead float64
	for _, r := range t {
		for range r.n {
			dead += DeadTime(r.pj, h.PowerW())
		}
	}
	return dead
}

// ObservedHarvestW reports the mean harvest power actually seen by the run
// so far: total recharged energy over total dead time. It returns 0 before
// the first recharge, when no observation exists; callers fall back to a
// nominal figure then. For a constant harvester this equals the constant,
// while for stochastic or diurnal harvesters it is the run's true average,
// which steady-state amortization must use instead of the RF constant.
func (p *Intermittent) ObservedHarvestW() float64 {
	if p.deadSec <= 0 {
		return 0
	}
	return p.harvestedNJ * 1e-9 / p.deadSec
}

// BufferEnergy returns the usable energy per charge in nJ.
func (p *Intermittent) BufferEnergy() float64 { return p.Cap.UsableNJ() }

// LevelNJ reports the remaining buffered energy; the tracing subsystem
// samples it to render the sawtooth voltage/energy track of Fig. 6.
func (p *Intermittent) LevelNJ() float64 { return float64(max(p.remainingPJ, 0)) * 1e-3 }

// Reset refills the capacitor and discards harvest observations and the
// deficit tape.
func (p *Intermittent) Reset() {
	p.usablePJ = p.Cap.UsablePJ()
	p.remainingPJ = p.usablePJ
	p.harvestedNJ = 0
	p.deadSec = 0
	p.tape = nil
}

// String describes the power system.
func (p *Intermittent) String() string {
	return fmt.Sprintf("intermittent(%.0fuF, %.1fuJ/cycle)", p.Cap.C*1e6, p.Cap.UsableNJ()/1e3)
}

// FailSchedule is the deterministic fault-injection source: the k-th
// charge cycle browns out on its Gaps[k]-th charged op, regardless of
// energy, and every cycle after the listed gaps on its Period-th op. With
// Period <= 0 the source behaves as continuous power once the gaps are
// exhausted, so every run terminates and can be checked against a golden
// result. Dead time is zero. Fuzzers decode their input bytes into a gap
// list and hand it here, making every failure schedule a small, printable,
// replayable value.
type FailSchedule struct {
	Gaps   []int
	Period int

	cycle int
	count int
}

// NewFailSchedule returns a source that fails after gaps[0] ops, then after
// the next gaps[1] ops, and so on; non-positive gaps are treated as 1 (a
// failure schedule can never brown out "before" an op boundary).
func NewFailSchedule(gaps []int) *FailSchedule {
	return &FailSchedule{Gaps: gaps}
}

// NewFailAfterOps returns a source failing first after `first` ops and then
// every `period` ops (period <= 0: never again).
func NewFailAfterOps(first, period int) *FailSchedule {
	return &FailSchedule{Gaps: []int{first}, Period: period}
}

// ConsumeN counts a batch of up to n ops against the current cycle's
// boundary; the cost is irrelevant to this source. The op arithmetic is
// count-exact: a partial batch advances the counter past the failing op,
// exactly as n one-op charges would.
func (f *FailSchedule) ConsumeN(_ int64, n int) int {
	gap := f.Period
	if f.cycle < len(f.Gaps) {
		gap = max(f.Gaps[f.cycle], 1)
	} else if gap <= 0 {
		return n // exhausted schedule: behave as continuous
	}
	avail := max(gap-1-f.count, 0)
	if n <= avail {
		f.count += n
		return n
	}
	f.count += avail + 1
	return avail
}

// Recharge advances to the next scheduled failure window.
func (f *FailSchedule) Recharge() float64 {
	f.cycle++
	f.count = 0
	return 0
}

// TraceHarvester replays a recorded power trace, one sample per recharge
// (cycling when exhausted). Deployments use it to drive the device from
// real measured harvesting conditions; the repository uses it for
// reproducible time-varying power in tests.
type TraceHarvester struct {
	Trace []float64 // Watts per charge cycle; must be positive
	pos   int
}

// NewTraceHarvester validates and wraps a trace.
func NewTraceHarvester(trace []float64) (*TraceHarvester, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("energy: empty harvest trace")
	}
	for i, w := range trace {
		if w <= 0 {
			return nil, fmt.Errorf("energy: trace sample %d is non-positive (%v)", i, w)
		}
	}
	return &TraceHarvester{Trace: trace}, nil
}

// PowerW returns the next trace sample, cycling.
func (h *TraceHarvester) PowerW() float64 {
	w := h.Trace[h.pos]
	h.pos = (h.pos + 1) % len(h.Trace)
	return w
}
