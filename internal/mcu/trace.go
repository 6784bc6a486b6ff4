package mcu

// This file defines the device-side half of the execution-tracing
// subsystem: a typed event model timestamped in both live cycles and
// accumulated energy, and a nil-checked Tracer hook on Device. The
// consumer side (ring buffer, exporters, wasted-work analysis) lives in
// internal/trace; keeping the interface here lets every layer of the
// stack emit events without import cycles.
//
// Tracing is off by default. The disabled cost is a single nil-check
// branch on the operation hot path (see BenchmarkDeviceOp); when enabled,
// per-operation costs are aggregated into op-batch events so the event
// stream stays proportional to interesting transitions, not to every
// simulated instruction. Event timestamps read the device's incremental
// (cycles, pJ) mirrors, so an event costs O(1) however many sections the
// run attributes to, and a tracer subscribed only to ChargeCycleKinds
// leaves the fused-kernel fast path engaged (see CanFuse).

// TraceKind enumerates the traceable event classes.
type TraceKind uint8

// Trace event kinds. The producers are spread across the stack: the
// device model itself (op batches, brown-outs, reboots, recharges, DMA
// and LEA invocations, layer/section changes, durable-progress commits),
// the Alpaca-style task runtime (task dispatch, privatization, the two
// phases of commit), SONIC (loop-continuation index writes, transitions),
// TAILS (calibration decisions), and the periodic-checkpointing runtime
// (register/stack dumps).
const (
	// TraceOpBatch aggregates consecutive plain operations within one
	// section; Arg is the operation count since the previous event.
	TraceOpBatch TraceKind = iota
	// TraceLayerBegin/TraceLayerEnd bracket execution attributed to one
	// layer label ("conv1", "fc", ...). A layer interrupted by a power
	// failure begins again after the reboot, so re-execution is visible
	// as repeated begin events for the same label.
	TraceLayerBegin
	TraceLayerEnd
	// TraceRunBegin marks the start of one inference attempt sequence;
	// Label is the runtime name.
	TraceRunBegin
	// TraceTaskBegin marks an Alpaca-style task dispatch; Label is the
	// task name, Arg its ID.
	TraceTaskBegin
	// TraceTaskCommitStage is phase one of the two-phase commit: the
	// transition target is staged and the runtime enters commit phase.
	TraceTaskCommitStage
	// TraceTaskCommitReplay is phase two: the redo log is replayed to the
	// home locations and the transition completes. Arg is the number of
	// log entries replayed.
	TraceTaskCommitReplay
	// TracePrivatize records a redo-log insertion (first write by a task
	// to a task-shared location); Label is the region name, Arg the slot.
	TracePrivatize
	// TraceCommit records durable progress: the point re-execution will
	// not cross again. Wasted-work analysis measures from the last commit
	// to the brown-out. Arg is the number of commits the event represents:
	// 1 for Device.Progress, m for a fused span of m whole iterations
	// (ChargeTrain), which is timestamped at the span's last
	// commit. Consumers count an Arg <= 0 as one commit, so hand-built
	// streams without a count keep their meaning.
	TraceCommit
	// TraceLoopIndex records a loop-continuation cursor write (SONIC's
	// per-iteration progress store); Arg is the packed cursor.
	TraceLoopIndex
	// TraceCheckpoint records a periodic-checkpoint register/stack dump;
	// Arg is the number of words dumped.
	TraceCheckpoint
	// TraceCalibrate records a TAILS tile-calibration decision; Label is
	// "trial" or "calibrated", Arg the tile size in words.
	TraceCalibrate
	// TraceDMA records one DMA block transfer; Arg is the word count.
	TraceDMA
	// TraceLEA records one LEA invocation; Label is the vector op
	// ("macv", "fir", "addv"), Arg the element count.
	TraceLEA
	// TraceBrownOut records the energy buffer emptying: the in-flight
	// operation did not take effect and volatile state is about to be
	// lost. Label is the section layer at failure.
	TraceBrownOut
	// TraceReboot records the device coming back up after a failure;
	// Arg is the cumulative reboot count.
	TraceReboot
	// TraceRechargeDone records the capacitor refill completing; the
	// event's DeadSec includes the recharge that just finished.
	TraceRechargeDone

	NumTraceKinds // sentinel
)

var traceKindNames = [NumTraceKinds]string{
	"op-batch", "layer-begin", "layer-end", "run-begin",
	"task-begin", "commit-stage", "commit-replay", "privatize",
	"commit", "loop-index", "checkpoint", "calibrate",
	"dma", "lea", "brown-out", "reboot", "recharge-done",
}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return "?"
}

// TraceEvent is one timestamped event. Timestamps are the device's
// accumulated live cycles and consumed energy at the moment of the event;
// DeadSec adds the recharge time spent so far, so wall-clock time is
// Cycles/ClockHz + DeadSec. LevelNJ samples the energy buffer when the
// power system exposes it (-1 otherwise), giving exporters the sawtooth
// voltage/energy track of the paper's Fig. 6.
type TraceEvent struct {
	Kind     TraceKind
	Cycles   int64
	EnergyNJ float64
	DeadSec  float64
	LevelNJ  float64
	Label    string
	Arg      int64
}

// Tracer receives the event stream. Implementations must not call back
// into the device. internal/trace provides the standard bounded ring
// buffer implementation.
type Tracer interface {
	TraceEvent(e TraceEvent)
}

// TraceMasker is an optional Tracer refinement: a consumer that wants only
// a subset of event kinds. SetTracer probes for it once and the device
// then skips masked-out events before constructing them — on hot paths
// (per-iteration loop-index stores, per-write privatize events) the
// construction itself dominates tracing cost, so a consumer that only
// needs the charge-cycle aggregation kinds avoids almost all of it — and,
// masked to ChargeCycleKinds, keeps the fused kernels engaged.
type TraceMasker interface {
	Tracer
	TraceMask() uint32
}

// TraceMaskAll is the event mask enabling every kind.
const TraceMaskAll = uint32(1)<<NumTraceKinds - 1

// ChargeCycleKinds is the event mask that delimits charge cycles and the
// commits inside them: run start, durable commits, brown-outs, reboots,
// and recharge completions — everything per-charge-cycle wasted-work
// analysis needs (trace.AnalysisKinds). None of these kinds fires inside
// a fused span except the commits, which the span emits coalesced, so a
// tracer whose mask stays within this set does not disable fusion.
const ChargeCycleKinds = uint32(1)<<TraceRunBegin | uint32(1)<<TraceCommit |
	uint32(1)<<TraceBrownOut | uint32(1)<<TraceReboot | uint32(1)<<TraceRechargeDone

// opBatchMax bounds how many plain operations aggregate into one op-batch
// event before a flush, so long kernels still produce periodic timeline
// and energy-level samples.
const opBatchMax = 1024

// SetTracer installs (or, with nil, removes) the event consumer. It also
// probes the power system once for a buffer-level sampler, so per-event
// level sampling is a cached indirect call rather than a type assertion.
func (d *Device) SetTracer(t Tracer) {
	d.tracer = t
	d.levelFn = nil
	d.traceMask = 0
	d.batchTrace = false
	if t == nil {
		d.refreshSlowOp()
		return
	}
	d.traceMask = TraceMaskAll
	if m, ok := t.(TraceMasker); ok {
		d.traceMask = m.TraceMask()
	}
	d.batchTrace = d.traceMask>>uint(TraceOpBatch)&1 == 1
	d.refreshSlowOp()
	if lv, ok := d.Power.(interface{ LevelNJ() float64 }); ok {
		d.levelFn = lv.LevelNJ
	}
}

// Tracer returns the installed event consumer (nil when tracing is off).
func (d *Device) Tracer() Tracer { return d.tracer }

// Emit records an event if tracing is enabled, flushing any pending
// op batch first so stream order matches execution order. Callers on hot
// paths should avoid constructing labels eagerly; passing stored strings
// keeps the disabled path allocation-free.
func (d *Device) Emit(k TraceKind, label string, arg int64) {
	if d.tracer == nil || d.traceMask>>uint(k)&1 == 0 {
		return
	}
	d.flushOpBatch()
	d.emit(k, label, arg)
}

// emit sends one event without flushing (internal).
func (d *Device) emit(k TraceKind, label string, arg int64) {
	if d.traceMask>>uint(k)&1 == 0 {
		return
	}
	level := -1.0
	if d.levelFn != nil {
		level = d.levelFn()
	}
	d.tracer.TraceEvent(TraceEvent{
		Kind:     k,
		Cycles:   d.cycNow,
		EnergyNJ: float64(d.pjNow) * 1e-3,
		DeadSec:  d.stats.DeadSeconds,
		LevelNJ:  level,
		Label:    label,
		Arg:      arg,
	})
}

// FlushTrace flushes any aggregated-but-unemitted op batch to the tracer,
// so the trace's final timestamps match Stats. Harnesses call it after a
// run completes; it is a no-op when tracing is off.
func (d *Device) FlushTrace() {
	if d.tracer != nil {
		d.flushOpBatch()
	}
}

// flushOpBatch emits the aggregated plain-operation event, attributed to
// the current section's layer.
func (d *Device) flushOpBatch() {
	if d.batchOps == 0 {
		return
	}
	n := d.batchOps
	d.batchOps = 0
	d.emit(TraceOpBatch, d.section.Layer, int64(n))
}
