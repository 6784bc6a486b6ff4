package mcu

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/energy"
	"repro/internal/mem"
)

// powerFailure is the panic sentinel raised when the energy buffer empties.
// It never escapes the package: Attempt recovers it.
type powerFailure struct{}

// ErrDoesNotComplete is returned when a program makes no progress across
// maxRebootsWithoutProgress consecutive charge cycles — the non-termination
// condition of §2.1 (e.g., a task that needs more energy than the device
// can buffer).
var ErrDoesNotComplete = errors.New("mcu: does not complete (no progress across charge cycles)")

// maxRebootsWithoutProgress is how many full charge cycles a program may
// burn with no committed progress before the run is declared
// non-terminating.
const maxRebootsWithoutProgress = 4

// Phase labels execution for the kernel/control breakdown of Fig. 10.
type Phase string

// Execution phases.
const (
	PhaseKernel     Phase = "kernel"
	PhaseControl    Phase = "control"
	PhaseTransition Phase = "transition"
)

// Section attributes operations to a layer and phase for the per-layer
// breakdowns in Figs. 9, 10, and 12.
type Section struct {
	Layer string
	Phase Phase
}

// SectionStats accumulates costs within one section. Energy accumulates in
// integer picojoules (EnergyPJ, OpEnergyPJ) so that charging n ops in one
// bulk update is bit-identical to n scalar updates — integer addition is
// associative where float64 accumulation is not. Use the EnergyNJ /
// OpEnergyNJ accessors for the nanojoule views.
type SectionStats struct {
	Cycles     int64
	EnergyPJ   int64
	OpCount    [NumOps]int64
	OpEnergyPJ [NumOps]int64
}

// EnergyNJ returns the section's consumed energy in nanojoules.
func (s *SectionStats) EnergyNJ() float64 { return float64(s.EnergyPJ) * 1e-3 }

// OpEnergyNJ returns the section's energy spent on one op kind in nJ.
func (s *SectionStats) OpEnergyNJ(k OpKind) float64 { return float64(s.OpEnergyPJ[k]) * 1e-3 }

// Stats is the device's full accounting. Energy accumulates in integer
// picojoules for the same bulk/scalar bit-exactness reason as SectionStats.
type Stats struct {
	LiveCycles  int64
	DeadSeconds float64
	Reboots     int
	EnergyPJ    int64
	OpCount     [NumOps]int64
	OpEnergyPJ  [NumOps]int64
	Sections    map[Section]*SectionStats

	// MaxRegionOps is the largest op count observed between consecutive
	// durable commits (Progress calls) — the program's atomic-region size.
	// Any charge cycle funding fewer ops than this can fail to make
	// progress, so fault-injection campaigns use it as the liveness floor
	// for fuzzed failure schedules.
	MaxRegionOps int64

	// Commits counts durable commits (Progress calls, and each whole
	// iteration a fused span funds). WastedCycles and WastedNJ sum, per
	// brown-out, the work done since its charge cycle's last commit or
	// start. They equal trace.Analysis's Commits, TotalWastedCycles and
	// TotalWastedEnergyNJ bit for bit, so a run needs no tracer for them.
	Commits      int
	WastedCycles int64
	WastedNJ     float64
}

// LiveSeconds converts live cycles to seconds at the given clock.
func (s *Stats) LiveSeconds(clockHz float64) float64 {
	return float64(s.LiveCycles) / clockHz
}

// TotalSeconds is live plus dead time.
func (s *Stats) TotalSeconds(clockHz float64) float64 {
	return s.LiveSeconds(clockHz) + s.DeadSeconds
}

// EnergyNJ returns total consumed energy in nanojoules.
func (s *Stats) EnergyNJ() float64 { return float64(s.EnergyPJ) * 1e-3 }

// OpEnergy returns the per-kind energy breakdown in nanojoules.
func (s *Stats) OpEnergy() [NumOps]float64 {
	var out [NumOps]float64
	for k, pj := range s.OpEnergyPJ {
		out[k] = float64(pj) * 1e-3
	}
	return out
}

// EnergyMJ returns total consumed energy in millijoules.
func (s *Stats) EnergyMJ() float64 { return float64(s.EnergyPJ) * 1e-9 }

// Device is the simulated MCU.
type Device struct {
	FRAM  *mem.Memory
	SRAM  *mem.Memory
	Power energy.System
	Cost  CostModel

	// JITIndexCheckpoint enables the future-architecture feature of §10:
	// a small hardware cache holds hot index variables and flushes them to
	// FRAM just in time at brown-out (using residual decoupling charge),
	// so per-iteration progress stores cost an SRAM write instead of a
	// FRAM write. The paper estimates this alone saves ~14% of SONIC's
	// system energy. StoreIndex honours the flag.
	JITIndexCheckpoint bool

	stats    Stats
	section  Section
	secStats *SectionStats

	// memoLayer/memoStats cache the resolved SectionStats for every phase
	// of the layer currently being attributed. Runtimes rotate through a
	// layer's kernel, control, and transition phases on every loop
	// iteration (the task runtime adds the transition phase, so a
	// two-entry cache thrashes), and a per-phase array turns each
	// SetSection inside a layer into an index load instead of a hashed
	// map lookup. Misses fall back to — and refill from — stats.Sections.
	memoLayer string
	memoStats [numMemoPhases]*SectionStats

	// toks holds the pre-resolved section handles handed out by
	// SectionToken; statsGen invalidates their cached stats pointers
	// whenever stats.Sections is replaced wholesale (ResetStats, fork
	// prefix restore).
	toks     []tokEntry
	statsGen uint32

	// costPJ caches the cost model's energies in integer picojoules, the
	// unit Stats accumulates in (see SectionStats), and costCyc its cycle
	// counts. Refreshed from Cost by NewWithMem; devices are constructed
	// through New/NewWithMem and Cost is never mutated afterwards anywhere
	// in the tree.
	costPJ  [NumOps]int64
	costCyc [NumOps]int64

	// intPower/contPower devirtualize the two concrete power systems every
	// simulated run uses, probed once per bound power system (bindPower)
	// like costPJ: a capacitor's per-op charge compiles to an inlined
	// integer subtract instead of an interface call, and continuous power
	// charges nothing. Any other system is charged through Power.ConsumeN.
	intPower  *energy.Intermittent
	contPower bool

	// cycNow and pjNow mirror the derived live-cycle count and total
	// consumed picojoules incrementally: every accounting path (Op,
	// account, ChargeTrain) adds its ops' costs, and every wholesale
	// stats replacement (ResetStats, RestorePrefix) resyncs them from the
	// per-section counts (resyncNow). They are the
	// O(1) timestamps of trace events and the basis of wasted-work
	// accounting, and hold at every op boundary whether or not anything
	// reads them.
	cycNow int64
	pjNow  int64

	// commitCyc and commitPJ are the (cycles, pJ) mirrors at the charge
	// cycle's last commit or start: the baseline a brown-out measures
	// wasted work from. Only commits, brown-outs and reboots touch them.
	commitCyc int64
	commitPJ  int64

	// Tracing state: tracer is the nil-checked event consumer, traceMask
	// the kinds it subscribed to (see TraceMasker), batchTrace whether
	// op-batch events are wanted, levelFn the cached energy-buffer
	// sampler, batchOps the plain-operation count aggregated since the
	// last emitted event (see trace.go).
	tracer     Tracer
	traceMask  uint32
	batchTrace bool
	levelFn    func() float64
	batchOps   int

	// Memory-consistency state: shadow is the nil-checked WAR tracker
	// (see consistency.go), protocol the regions exempted from it, and
	// warViolations/warCount the detections so far.
	shadow        *mem.Shadow
	protocol      []*mem.Region
	warViolations []WARViolation
	warCount      int

	rebootsSinceProgress int
	inAttempt            bool
	opsInRegion          int64

	// slowOp gates Op's out-of-line body: true while any per-op observer
	// is attached (journal, WAR shadow, op-batch tracing). Wasted-work
	// tracking does not set it (see refreshSlowOp). Recomputed at every
	// attach/detach point, so the hot path tests one bool instead of three.
	slowOp bool

	// opsTotal is the op-position coordinate the snapshot/fork machinery
	// (journal.go) and the WAR shadow index everything by — the count of
	// charged operations, equal to the sum of the per-section op counts
	// (opsNow). It is maintained incrementally only on the slow op path;
	// observers that need it resync it from opsNow when they attach.
	opsTotal int64
	journal  *Journal

	// fusedOps counts the operations charged through ChargeTrain since the
	// last ResetStats (FusedOps). It is kept out of Stats, so a fused run
	// and its energy.PerOp reference report identical Stats.
	fusedOps int64

	// blocks interns the charge profiles NewBlock has built, by a hash of
	// their op lists (colliding blocks chain through Block.next). Tokens
	// and costs never change on a device, so a block stays valid for the
	// device's life.
	blocks map[uint64]*Block
}

// New returns a device with the standard MSP430FR5994 memory sizes.
func New(power energy.System) *Device {
	return NewWithMem(power, mem.New(mem.FRAM, mem.DefaultFRAMBytes), mem.New(mem.SRAM, mem.DefaultSRAMBytes))
}

// NewWithMem returns a device over caller-provided memories.
func NewWithMem(power energy.System, fram, sram *mem.Memory) *Device {
	d := &Device{FRAM: fram, SRAM: sram, Cost: DefaultCostModel()}
	for k := range d.costPJ {
		d.costPJ[k] = energy.PicojoulesOf(d.Cost.Costs[k].EnergyNJ)
		d.costCyc[k] = int64(d.Cost.Costs[k].Cycles)
	}
	d.bindPower(power)
	d.stats.Sections = make(map[Section]*SectionStats)
	d.SetSection("boot", PhaseControl)
	return d
}

// bindPower installs the power system and re-probes the devirtualization
// caches that depend on its concrete type.
func (d *Device) bindPower(power energy.System) {
	d.Power = power
	d.intPower, d.contPower = nil, false
	switch p := power.(type) {
	case *energy.Intermittent:
		d.intPower = p
	case energy.Continuous:
		d.contPower = true
	}
}

// Reprovision resets the device for reuse by a new simulated instance: a
// fresh power system is bound (re-probing the devirtualized fast paths),
// and every piece of per-run mutable state outside the memory banks —
// stats (wasted work included), section attribution, WAR verdicts,
// progress/attempt bookkeeping — is cleared without reallocating the
// banks or invalidating any *mem.Region pointer. Memory contents are the
// caller's job (a core.Slot restores them from its template's snapshots
// before calling this). Protocol regions released since they were marked
// (a task runtime's redo log and state, when prepared per run) are dropped,
// and an armed WAR shadow is reset in place — in-flight word states
// cleared, released regions forgotten — so a WAR-checking pooled device
// starts each run like a freshly armed one. The journal and tracer are
// not touched.
func (d *Device) Reprovision(power energy.System) {
	d.bindPower(power)
	d.protocol = slices.DeleteFunc(d.protocol, (*mem.Region).Released)
	if d.shadow != nil {
		d.shadow.Reset()
	}
	d.warViolations = nil
	d.warCount = 0
	d.rebootsSinceProgress = 0
	d.inAttempt = false
	d.ResetStats()
}

// Stats returns the accumulated statistics. Derived accumulators (cycles
// and energy, which are fixed integer multiples of the op counts) are
// materialized here rather than on every operation; the finalization is
// idempotent, so Stats may be called at any point during a run.
func (d *Device) Stats() *Stats {
	d.finalizeStats()
	return &d.stats
}

// TakeStats returns the accumulated statistics, finalized, and hands them
// over: the device starts a new accounting as ResetStats does, so nothing
// it does later (a pooled device's next run) reaches the returned Stats.
// Unlike Stats, whose pointer aliases the live accounting, the result is
// the caller's to keep.
func (d *Device) TakeStats() *Stats {
	d.finalizeStats()
	st := d.stats
	d.ResetStats()
	return &st
}

// finalizeStats recomputes the derived Stats fields from the per-section
// op counts — the only per-kind accounting the hot paths maintain. The global
// per-kind OpCount is their sum (every charged op is attributed to exactly
// one section), and LiveCycles and the energy accumulators are
// Σ count[k]·cost[k] with integer per-kind costs, so deriving everything
// on demand is bit-identical to accumulating it per operation.
func (d *Device) finalizeStats() {
	var totCyc, totPJ int64
	var tot [NumOps]int64
	for _, ss := range d.stats.Sections {
		var cyc, pj int64
		for k, n := range ss.OpCount {
			epj := n * d.costPJ[k]
			ss.OpEnergyPJ[k] = epj
			cyc += n * d.costCyc[k]
			pj += epj
			tot[k] += n
		}
		ss.Cycles = cyc
		ss.EnergyPJ = pj
		totCyc += cyc
		totPJ += pj
	}
	d.stats.OpCount = tot
	for k, n := range tot {
		d.stats.OpEnergyPJ[k] = n * d.costPJ[k]
	}
	d.stats.LiveCycles = totCyc
	d.stats.EnergyPJ = totPJ
}

// resyncNow recomputes the (cycles, pJ) mirrors from the per-section op
// counts after stats are replaced wholesale (ResetStats, RestorePrefix)
// — the one place the full derivation still runs outside Stats().
func (d *Device) resyncNow() {
	d.finalizeStats()
	d.cycNow, d.pjNow = d.stats.LiveCycles, d.stats.EnergyPJ
}

// markCommit moves the wasted-work baseline to now: a durable commit, or
// the start of a charge cycle.
func (d *Device) markCommit() { d.commitCyc, d.commitPJ = d.cycNow, d.pjNow }

// wasteCycle books a brown-out's re-executed work: everything accounted
// since the baseline (not the failing op, as a brown-out event's
// timestamp), in the float64 nJ arithmetic of trace.Analysis.
func (d *Device) wasteCycle() {
	d.stats.WastedCycles += d.cycNow - d.commitCyc
	d.stats.WastedNJ += float64(d.pjNow)*1e-3 - float64(d.commitPJ)*1e-3
}

// opsNow derives the total charged-operation count from the per-section
// accounting — the value opsTotal mirrors while a per-op observer is
// attached. Observers resync the mirror from it when they attach.
func (d *Device) opsNow() int64 {
	var n int64
	for _, ss := range d.stats.Sections {
		for _, c := range ss.OpCount {
			n += c
		}
	}
	return n
}

// refreshSlowOp recomputes the slow-path bit from the attached observers
// and mirrors. Every attach/detach point (StartJournal, StopJournal,
// SetTracer, EnableWARCheck, ResetStats) calls it. Wasted-work accounting
// does not force the slow path: it reads the (cycles, pJ) mirrors the
// fast path maintains directly, and acts only at commits and brown-outs.
func (d *Device) refreshSlowOp() {
	d.slowOp = d.journal != nil || d.shadow != nil || d.batchTrace
}

// ResetStats clears accounting without touching memory or power. Any
// operations batched for the tracer but not yet emitted are discarded
// rather than carried over — they belong to the pre-reset stream, and
// flushing them after the reset would mis-attribute them to post-reset
// timestamps. The open commit region's op count is likewise zeroed so
// MaxRegionOps measures only post-reset regions.
func (d *Device) ResetStats() {
	d.stats = Stats{Sections: make(map[Section]*SectionStats)}
	d.batchOps = 0
	d.opsInRegion = 0
	d.opsTotal = 0
	d.fusedOps = 0
	d.resyncNow()
	d.markCommit()
	d.secStats = nil // force SetSection to re-resolve into the fresh map
	d.memoLayer, d.memoStats = "", [numMemoPhases]*SectionStats{}
	d.statsGen++
	d.refreshSlowOp()
	d.SetSection("boot", PhaseControl)
}

// TrackWasted does nothing: every device counts wasted work in its Stats.
//
// Deprecated: read Stats; the benchmark's inference probes still call it.
func (d *Device) TrackWasted(bool) {}

// FusedOps reports how many of the charged operations since the last
// ResetStats were funded through ChargeTrain, the fused path; the rest
// went through Op, Ops and the Range macro-ops. It is zero on the
// energy.PerOp reference path and whenever CanFuse is false.
func (d *Device) FusedOps() int64 { return d.fusedOps }

// CanFuse reports whether the fused-kernel fast path may engage: no
// journal or WAR tracker attached (both must see the per-op stream), and
// no tracer subscribed to any event kind outside ChargeCycleKinds. An
// analysis-only tracer keeps fusion on: ChargeTrain emits one coalesced
// commit per funded span, which it aggregates exactly as it would the
// per-iteration commits of the scalar walk. The power system must be one
// of the two devirtualized kinds (Intermittent or Continuous), whose
// whole-block funding is exact; count-based fault-injection systems and
// the energy.PerOp reference take the scalar path, so failure schedules
// keep their op-exact placement and the reference runs no fused kernel.
// When it holds, SONIC-family loops and tile tasks whose bodies are all
// bulk chunks run as ChargeTrain spans; other tile tasks (short chunks,
// privatized re-writes, pool) and the first unfunded iteration of any
// span charge per op or per bulk range as before.
func (d *Device) CanFuse() bool {
	return d.journal == nil && d.shadow == nil &&
		d.traceMask&^ChargeCycleKinds == 0 && (d.intPower != nil || d.contPower)
}

// SetSection changes the attribution label for subsequent operations.
// When tracing, a layer-label change flushes the pending op batch and
// emits layer-end/layer-begin events (phase-only changes do not, keeping
// the event stream proportional to layer transitions, not iterations).
func (d *Device) SetSection(layer string, phase Phase) {
	sec := Section{Layer: layer, Phase: phase}
	if sec == d.section && d.secStats != nil {
		return
	}
	if d.tracer != nil && layer != d.section.Layer {
		d.flushOpBatch()
		if d.secStats != nil { // skip the end event for the initial boot section
			d.emit(TraceLayerEnd, d.section.Layer, 0)
		}
		d.emit(TraceLayerBegin, layer, 0)
	}
	d.section = sec
	pi := phaseMemoIndex(phase)
	if layer != d.memoLayer && pi >= 0 {
		d.memoLayer = layer
		d.memoStats = [numMemoPhases]*SectionStats{}
	}
	if pi >= 0 && d.memoStats[pi] != nil {
		d.secStats = d.memoStats[pi]
	} else {
		ss, ok := d.stats.Sections[sec]
		if !ok {
			ss = &SectionStats{}
			d.stats.Sections[sec] = ss
		}
		d.secStats = ss
		if pi >= 0 {
			d.memoStats[pi] = ss
		}
	}
	if j := d.journal; j != nil {
		j.onSection(sec)
	}
}

// numMemoPhases sizes the per-layer phase memo: the three named phases.
const numMemoPhases = 3

// phaseMemoIndex maps the named phases to memo slots; unknown phases
// return -1 and resolve through the section map on every call.
func phaseMemoIndex(p Phase) int {
	switch p {
	case PhaseKernel:
		return 0
	case PhaseControl:
		return 1
	case PhaseTransition:
		return 2
	}
	return -1
}

// Section returns the current attribution label.
func (d *Device) Section() (string, Phase) { return d.section.Layer, d.section.Phase }

// SectionTok is a pre-resolved section handle. The layer walks flip
// attribution twice per inner-loop iteration; resolving the (layer, phase)
// pair once per layer and switching by token replaces the per-iteration
// string construction and comparison with an index load. The accounting is
// identical to SetSection's — tokens cache pointers into the same
// stats.Sections entries — so the attributed Stats are bit-exact with a
// SetSection walk's.
type SectionTok int

// tokEntry caches one token's resolved stats. gen guards against stats
// replacement (ResetStats, RestorePrefix): a stale entry re-resolves
// into the live map on next use.
type tokEntry struct {
	sec   Section
	stats *SectionStats
	gen   uint32
}

// SectionToken registers a (layer, phase) pair and returns its handle.
// Tokens are device-local (stats pointers are per-device) and cheap; the
// layer walks resolve a layer's phases once per layer visit. The stats
// entry is materialized lazily, on the first switch — exactly when
// SetSection would create it — so a run that dies before ever entering the
// section leaves the same Sections map a SetSection walk would.
func (d *Device) SectionToken(layer string, phase Phase) SectionTok {
	// Dedupe on (layer, phase): executors re-register on every layer visit
	// (once per reboot attempt), and handing back the existing token keeps
	// toks at two entries per section instead of growing — and reallocating
	// — across a long intermittent run. The scan is over a handful of
	// entries, and the layer names come from the per-model memo, so the
	// string compare is almost always a pointer compare.
	for i := range d.toks {
		if d.toks[i].sec.Phase == phase && d.toks[i].sec.Layer == layer {
			return SectionTok(i)
		}
	}
	d.toks = append(d.toks, tokEntry{sec: Section{Layer: layer, Phase: phase}})
	return SectionTok(len(d.toks) - 1)
}

// InSection reports whether t's section is the current one.
func (d *Device) InSection(t SectionTok) bool { return d.toks[t].sec == d.section }

// SetSectionTok is SetSection through a pre-resolved handle: the same
// section change, layer-transition trace events, and journal record, with
// the resolution amortized into SectionToken.
func (d *Device) SetSectionTok(t SectionTok) {
	e := &d.toks[t]
	if e.sec == d.section && d.secStats != nil {
		return
	}
	if d.tracer != nil && e.sec.Layer != d.section.Layer {
		d.flushOpBatch()
		if d.secStats != nil { // skip the end event for the initial boot section
			d.emit(TraceLayerEnd, d.section.Layer, 0)
		}
		d.emit(TraceLayerBegin, e.sec.Layer, 0)
	}
	if e.stats == nil || e.gen != d.statsGen {
		e.stats = d.resolveSection(e.sec)
		e.gen = d.statsGen
	}
	d.section = e.sec
	d.secStats = e.stats
	if j := d.journal; j != nil {
		j.onSection(e.sec)
	}
}

// resolveSection returns the live SectionStats for sec, creating it on
// first attribution exactly as SetSection does.
func (d *Device) resolveSection(sec Section) *SectionStats {
	ss, ok := d.stats.Sections[sec]
	if !ok {
		ss = &SectionStats{}
		d.stats.Sections[sec] = ss
	}
	return ss
}

// Op charges one operation of kind k. If the energy buffer empties, the
// operation does not take effect and the device browns out (panics with the
// power-failure sentinel, recovered by Attempt). The common path is charge
// plus two increments and the (cycles, pJ) mirror adds: everything an
// attached observer would need — the journal tape, the opsTotal mirror,
// op-batch bookkeeping — lives in the out-of-line opSlow body behind the
// one recomputed-on-attach slowOp bit.
func (d *Device) Op(k OpKind) {
	if d.slowOp {
		d.opSlow(k)
		return
	}
	// The devirtualized charges are open-coded: a capacitor's is an
	// inlined integer subtract, continuous power's is nothing, and only
	// other systems (the energy.PerOp reference among them) pay an
	// interface call.
	if p := d.intPower; p != nil {
		if !p.ConsumePJ(d.costPJ[k]) {
			d.brownOut(k)
		}
	} else if !d.contPower && d.Power.ConsumeN(d.costPJ[k], 1) == 0 {
		d.brownOut(k)
	}
	d.secStats.OpCount[k]++
	d.opsInRegion++
	d.cycNow += d.costCyc[k]
	d.pjNow += d.costPJ[k]
}

// opSlow is Op's full body for devices with a per-op observer or mirror
// attached. It additionally maintains opsTotal, the op-position coordinate
// the journal and WAR shadow index by.
func (d *Device) opSlow(k OpKind) {
	if j := d.journal; j != nil {
		j.onOp(k)
	}
	if p := d.intPower; p != nil {
		if !p.ConsumePJ(d.costPJ[k]) {
			d.brownOut(k)
		}
	} else if !d.contPower && d.Power.ConsumeN(d.costPJ[k], 1) == 0 {
		d.brownOut(k)
	}
	d.opsTotal++
	d.secStats.OpCount[k]++
	d.opsInRegion++
	d.cycNow += d.costCyc[k]
	d.pjNow += d.costPJ[k]
	if d.batchTrace {
		d.batchOps++
		if d.batchOps >= opBatchMax {
			d.flushOpBatch()
		}
	}
}

// account records n funded operations of kind k. Only the op counts, the
// open commit region's size and the running (cycles, pJ) totals are
// maintained per operation; the per-section and per-kind cycles and
// energy are fixed integer multiples of the counts and are derived in
// finalizeStats, so one n-fold update is bit-identical to n single
// updates — the invariant the bulk-charge fast path and the differential
// oracle rely on.
func (d *Device) account(k OpKind, n int) {
	if d.slowOp {
		d.accountSlow(k, n)
		return
	}
	nn := int64(n)
	d.secStats.OpCount[k] += nn
	d.opsInRegion += nn
	d.cycNow += nn * d.costCyc[k]
	d.pjNow += nn * d.costPJ[k]
}

// accountSlow is account's full body behind the slowOp bit, mirroring
// opSlow's bookkeeping for a funded bulk batch.
func (d *Device) accountSlow(k OpKind, n int) {
	if j := d.journal; j != nil {
		j.onOps(k, n)
	}
	nn := int64(n)
	d.opsTotal += nn
	d.secStats.OpCount[k] += nn
	d.opsInRegion += nn
	d.cycNow += nn * d.costCyc[k]
	d.pjNow += nn * d.costPJ[k]
	if d.batchTrace {
		d.batchOps += n
		if d.batchOps >= opBatchMax {
			d.flushOpBatch()
		}
	}
}

// brownOut raises the power-failure sentinel for an unfunded op of kind k.
func (d *Device) brownOut(k OpKind) {
	if d.tracer != nil {
		d.flushOpBatch()
		d.emit(TraceBrownOut, d.section.Layer, int64(k))
	}
	d.wasteCycle()
	panic(powerFailure{})
}

// chargeOps charges up to n operations of kind k and returns how many were
// funded, accounting exactly the funded prefix: one ConsumeN for the whole
// batch (devirtualized on a capacitor, free on continuous power; the
// energy.PerOp reference splits it into n one-op charges). Callers apply
// the funded prefix's effects and brown out when the return value is
// short.
func (d *Device) chargeOps(k OpKind, n int) int {
	funded := n
	if p := d.intPower; p != nil {
		funded = p.ConsumeN(d.costPJ[k], n)
	} else if !d.contPower {
		funded = d.Power.ConsumeN(d.costPJ[k], n)
	}
	if funded > 0 {
		d.account(k, funded)
	}
	return funded
}

// Ops charges n operations of kind k through the bulk fast path: O(1)
// accounting for the whole run, with a power failure still landing at the
// exact op index the scalar loop would brown out on.
func (d *Device) Ops(k OpKind, n int) {
	if n <= 0 {
		return
	}
	if funded := d.chargeOps(k, n); funded < n {
		d.brownOut(k)
	}
}

// LoadOp returns the op kind a load from region r charges.
func LoadOp(r *mem.Region) OpKind {
	if r.Kind() == mem.FRAM {
		return OpLoadFRAM
	}
	return OpLoadSRAM
}

// StoreOp returns the op kind a store to region r charges.
func StoreOp(r *mem.Region) OpKind {
	if r.Kind() == mem.FRAM {
		return OpStoreFRAM
	}
	return OpStoreSRAM
}

// Load reads region word i, charging the memory's access cost.
func (d *Device) Load(r *mem.Region, i int) int64 {
	d.Op(LoadOp(r))
	if d.shadow != nil {
		d.shadowRead(r, i)
	}
	return r.Get(i)
}

// Store writes region word i, charging the memory's access cost. The write
// does not occur if power fails on this operation.
func (d *Device) Store(r *mem.Region, i int, v int64) {
	d.Op(StoreOp(r))
	if d.shadow != nil {
		d.shadowWrite(r, i)
	}
	r.Put(i, v)
}

// LoadRange charges n consecutive loads from region words r[i:i+n] as one
// bulk batch — the macro-op form of n Load calls. It performs no data
// movement (callers read values with r.Get, which is free of charge, as in
// Load); it charges the loads, records the funded prefix's shadow reads,
// and browns out at the exact op index the scalar loop would.
func (d *Device) LoadRange(r *mem.Region, i, n int) {
	if n <= 0 {
		return
	}
	k := LoadOp(r)
	funded := d.chargeOps(k, n)
	if d.shadow != nil {
		for j := 0; j < funded; j++ {
			d.shadowRead(r, i+j)
		}
	}
	if funded < n {
		d.brownOut(k)
	}
}

// StoreRange writes vs to consecutive region words r[i:i+len(vs)] as one
// bulk batch — the macro-op form of len(vs) Store calls. Exactly the
// funded prefix of the writes takes effect (with its shadow records), so a
// mid-batch power failure leaves the same partial destination the scalar
// loop would.
func (d *Device) StoreRange(r *mem.Region, i int, vs []int64) {
	n := len(vs)
	if n == 0 {
		return
	}
	k := StoreOp(r)
	funded := d.chargeOps(k, n)
	if d.journal == nil && d.shadow == nil {
		// No write-log ordering or WAR records to maintain: the funded
		// prefix lands via one bulk copy (observer-aware in SetRange).
		r.SetRange(i, vs[:funded])
		if funded < n {
			d.brownOut(k)
		}
		return
	}
	if jr := d.journal; jr != nil {
		jr.beginBatch(funded)
	}
	for j := 0; j < funded; j++ {
		if d.shadow != nil {
			d.shadowWrite(r, i+j)
		}
		r.Put(i+j, vs[j])
	}
	if jr := d.journal; jr != nil {
		jr.endBatch()
	}
	if funded < n {
		d.brownOut(k)
	}
}

// MACRange charges the canonical software multiply-accumulate inner loop
// for n consecutive elements — per element one loop branch, one weight
// load from w[wOff+j], one activation load from x[xOff+j], one fixed-point
// multiply and one fixed-point accumulate — in segment-grouped order (all
// branches, then all weight loads, ...). Within one uncommitted region the
// grouping is architecturally legal: the memory reads keep their relative
// order and a failure anywhere in the range aborts the whole region.
// Callers compute the arithmetic themselves from r.Get values.
func (d *Device) MACRange(w *mem.Region, wOff int, x *mem.Region, xOff, n int) {
	if n <= 0 {
		return
	}
	d.Ops(OpBranch, n)
	d.LoadRange(w, wOff, n)
	d.LoadRange(x, xOff, n)
	d.Ops(OpFixedMul, n)
	d.Ops(OpFixedAdd, n)
}

// StoreIndex writes a loop-index/progress word. With JITIndexCheckpoint
// disabled (the default, matching real MSP430 hardware) it is an ordinary
// store at the region's cost; with the §10 architecture enabled it charges
// only an SRAM store, and the value still persists across power failures
// because the hardware flushes the index cache at brown-out.
func (d *Device) StoreIndex(r *mem.Region, i int, v int64) {
	if d.JITIndexCheckpoint {
		d.Op(OpStoreSRAM)
		if d.shadow != nil {
			d.shadowWrite(r, i) // the value persists, so it is an NV write
		}
		r.Put(i, v)
		return
	}
	d.Store(r, i, v)
}

// Progress records that the running program committed durable work. The
// non-termination detector resets; programs that fail to call this across
// several whole charge cycles are declared non-terminating. Every runtime
// calls this exactly at its durable-progress points, so it doubles as the
// uniform commit-event emitter for wasted-work analysis.
func (d *Device) Progress() {
	d.rebootsSinceProgress = 0
	if d.opsInRegion > d.stats.MaxRegionOps {
		d.stats.MaxRegionOps = d.opsInRegion
	}
	d.opsInRegion = 0
	d.stats.Commits++
	d.markCommit()
	if j := d.journal; j != nil {
		j.onCommit()
	}
	if d.shadow != nil {
		d.shadow.Commit()
	}
	if d.tracer != nil {
		d.flushOpBatch()
		d.emit(TraceCommit, d.section.Layer, 1)
	}
}

// Attempt runs f, converting a brown-out into a normal return.
// It returns true if f ran to completion, false if power failed.
func (d *Device) Attempt(f func()) (completed bool) {
	if d.inAttempt {
		panic("mcu: nested Attempt")
	}
	d.inAttempt = true
	defer func() {
		d.inAttempt = false
		if r := recover(); r != nil {
			if _, ok := r.(powerFailure); !ok {
				panic(r)
			}
			if d.shadow != nil {
				d.shadow.Abort()
			}
			d.opsInRegion = 0 // region aborted; it never committed
			completed = false
		}
	}()
	f()
	return true
}

// Reboot models the post-failure power cycle: SRAM clears, the capacitor
// recharges (adding dead time), and the reboot counters advance. It returns
// ErrDoesNotComplete when the program has burned too many whole charge
// cycles without progress.
func (d *Device) Reboot() error {
	d.SRAM.ClearVolatile()
	d.stats.Reboots++
	d.markCommit() // a new charge cycle starts its baseline here
	d.Emit(TraceReboot, "", int64(d.stats.Reboots))
	d.stats.DeadSeconds += d.Power.Recharge()
	d.Emit(TraceRechargeDone, "", 0)
	d.rebootsSinceProgress++
	if d.rebootsSinceProgress > maxRebootsWithoutProgress {
		return ErrDoesNotComplete
	}
	return nil
}

// Run drives f to completion under intermittent power: attempt, reboot on
// failure, retry. f is re-invoked from its start after each failure — it
// must locate its restart point in FRAM, exactly as intermittent programs
// do. Run returns ErrDoesNotComplete if f stops making progress.
func (d *Device) Run(f func()) error {
	for {
		if d.Attempt(f) {
			return nil
		}
		if err := d.Reboot(); err != nil {
			return err
		}
	}
}

// String describes the device configuration.
func (d *Device) String() string {
	return fmt.Sprintf("mcu(FRAM %dKB, SRAM %dKB, clock %.0fMHz)",
		d.FRAM.Capacity()/1024, d.SRAM.Capacity()/1024, d.Cost.ClockHz/1e6)
}
