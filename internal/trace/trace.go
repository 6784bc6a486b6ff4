// Package trace is the consumer half of the execution-tracing subsystem:
// a bounded ring buffer that records the device model's typed event
// stream (mcu.TraceEvent), exporters that render it as Chrome
// trace-event JSON (loadable in Perfetto), CSV, or a terminal timeline,
// and an Analysis that derives per-charge-cycle wasted work — the
// quantitative version of the paper's Fig. 6 for every runtime.
//
// Events are timestamped in both live cycles and accumulated energy, and
// carry the energy buffer's level when the power system exposes it, so a
// trace shows *where* power failures land and *how much* work between
// the last commit and each reboot is re-executed.
//
// The ring is bounded: when it fills, the oldest events are overwritten
// (Drops counts them) — but the wasted-work aggregation is computed
// online as events arrive, so Analysis stays exact over the whole run
// regardless of ring capacity.
package trace

import "repro/internal/mcu"

// Event is the device model's trace event.
type Event = mcu.TraceEvent

// DefaultCapacity is the default ring size in events.
const DefaultCapacity = 1 << 16

// Buffer is a bounded ring of trace events implementing mcu.Tracer. It
// is not safe for concurrent use; each simulated device gets its own.
type Buffer struct {
	events []Event
	next   int
	count  int
	drops  uint64
	mask   uint32 // event kinds this buffer subscribes to (mcu.TraceMasker)

	// Online per-charge-cycle aggregation (exact even after ring wrap).
	closed   []ChargeCycle
	cur      ChargeCycle
	sawEvent bool
	lastC    int64   // cycles at the most recent event
	lastE    float64 // energy at the most recent event
	lastD    float64 // dead seconds at the most recent event
}

// NewBuffer returns a ring holding up to capacity events (DefaultCapacity
// if capacity <= 0).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Buffer{events: make([]Event, 0, capacity), mask: mcu.TraceMaskAll}
}

// AnalysisKinds is the minimal event-kind mask the online wasted-work
// aggregation needs: run start, durable commits, brown-outs, reboots, and
// recharge completions — the device's charge-cycle set.
const AnalysisKinds = mcu.ChargeCycleKinds

// NewAnalysisBuffer returns a ring subscribed only to AnalysisKinds. Its
// Analysis() aggregates (commits, wasted work, recharge time) are
// identical to a fully-subscribed buffer's, but the device skips the
// per-iteration event kinds entirely and keeps its fused kernels engaged
// (each funded span arrives as one coalesced commit) — the right tracer
// for callers that want the per-charge-cycle breakdown at close to
// untraced speed. The run-wide totals need no tracer at all: the device
// counts them in its Stats (Commits, WastedCycles, WastedNJ).
func NewAnalysisBuffer(capacity int) *Buffer {
	b := NewBuffer(capacity)
	b.mask = AnalysisKinds
	return b
}

// TraceMask implements mcu.TraceMasker: the device consults it once at
// SetTracer time and never constructs masked-out events.
func (b *Buffer) TraceMask() uint32 { return b.mask }

// TraceEvent records one event, overwriting the oldest when full, and
// feeds the online wasted-work aggregation.
func (b *Buffer) TraceEvent(e Event) {
	if len(b.events) < cap(b.events) {
		b.events = append(b.events, e)
	} else {
		b.events[b.next] = e
		b.drops++
	}
	if b.next++; b.next == cap(b.events) {
		b.next = 0
	}
	b.count = len(b.events)
	b.observe(e)
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return b.count }

// Drops returns how many events were overwritten after the ring filled.
func (b *Buffer) Drops() uint64 { return b.drops }

// Events returns the buffered events oldest-first. The slice is freshly
// allocated; the ring is unchanged.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, b.count)
	if b.count == cap(b.events) {
		out = append(out, b.events[b.next:]...)
	}
	return append(out, b.events[:b.next]...)
}

// Reset clears the ring and the aggregation state.
func (b *Buffer) Reset() {
	b.events = b.events[:0]
	b.next, b.count, b.drops = 0, 0, 0
	b.closed = nil
	b.cur = ChargeCycle{}
	b.sawEvent = false
	b.lastC, b.lastE, b.lastD = 0, 0, 0
}

// observe updates the per-charge-cycle aggregation with one event.
func (b *Buffer) observe(e Event) {
	if !b.sawEvent {
		b.sawEvent = true
		b.cur = newCycle(0, e.Cycles, e.EnergyNJ)
	}
	switch e.Kind {
	case mcu.TraceCommit:
		b.cur.Commits += commitsOf(e)
		b.cur.lastCommitC = e.Cycles
		b.cur.lastCommitE = e.EnergyNJ
	case mcu.TraceBrownOut:
		b.cur.BrownedOut = true
		b.cur.FailedIn = e.Label
		b.cur.WastedCycles = e.Cycles - b.cur.lastCommitC
		b.cur.WastedEnergyNJ = e.EnergyNJ - b.cur.lastCommitE
	case mcu.TraceReboot:
		b.cur.EndCycles = e.Cycles
		b.cur.EndEnergyNJ = e.EnergyNJ
		b.closed = append(b.closed, b.cur)
		b.cur = newCycle(len(b.closed), e.Cycles, e.EnergyNJ)
	case mcu.TraceRechargeDone:
		b.cur.RechargeSec += e.DeadSec - b.lastD
	}
	b.lastC, b.lastE, b.lastD = e.Cycles, e.EnergyNJ, e.DeadSec
}

// commitsOf returns how many durable commits a TraceCommit event stands
// for: its Arg (a fused span coalesces many), with Arg <= 0 — streams
// that predate the count — counting as one.
func commitsOf(e Event) int {
	if e.Arg <= 0 {
		return 1
	}
	return int(e.Arg)
}

func newCycle(index int, cycles int64, energy float64) ChargeCycle {
	return ChargeCycle{
		Index:         index,
		StartCycles:   cycles,
		StartEnergyNJ: energy,
		lastCommitC:   cycles,
		lastCommitE:   energy,
	}
}
