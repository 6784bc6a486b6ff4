package energy

import (
	"fmt"
	"slices"
)

// SystemState is an opaque, immutable capture of a power system's
// instantaneous state, produced by a Snapshotter and reinstated with
// RestoreState. Restoring onto a different system (or a system of another
// type) is rejected rather than guessed at.
type SystemState interface {
	restoreTo(s System) bool
}

// Snapshotter is the optional System extension behind deterministic
// simulation forking: SnapshotState captures everything ConsumeN/Recharge
// have accumulated, so a restored system continues bit-identically to one
// that never stopped. All of this package's systems implement it.
type Snapshotter interface {
	SnapshotState() SystemState
}

// RestoreState reinstates a captured state onto s.
func RestoreState(s System, st SystemState) error {
	if st == nil || !st.restoreTo(s) {
		return fmt.Errorf("energy: state %T does not restore onto %T", st, s)
	}
	return nil
}

type continuousState struct{}

// SnapshotState captures nothing: continuous power is stateless.
func (Continuous) SnapshotState() SystemState { return continuousState{} }

func (continuousState) restoreTo(s System) bool {
	_, ok := s.(Continuous)
	return ok
}

type intermittentState struct {
	remainingPJ int64
	usablePJ    int64
	harvestedNJ float64
	deadSec     float64
	recording   bool
	tape        DeficitTape
}

// SnapshotState captures the buffer level, harvest observations and the
// deficit tape.
func (p *Intermittent) SnapshotState() SystemState {
	return intermittentState{p.remainingPJ, p.usablePJ, p.harvestedNJ, p.deadSec, p.recording, slices.Clone(p.tape)}
}

func (st intermittentState) restoreTo(s System) bool {
	p, ok := s.(*Intermittent)
	if !ok {
		return false
	}
	p.remainingPJ = st.remainingPJ
	p.usablePJ = st.usablePJ
	p.harvestedNJ = st.harvestedNJ
	p.deadSec = st.deadSec
	p.recording = st.recording
	p.tape = slices.Clone(st.tape)
	return true
}

type failAfterOpsState struct {
	count  int
	limit  int
	failed bool
}

// SnapshotState captures the op counter and the armed failure window.
func (f *FailAfterOps) SnapshotState() SystemState {
	return failAfterOpsState{f.count, f.limit, f.failed}
}

func (st failAfterOpsState) restoreTo(s System) bool {
	f, ok := s.(*FailAfterOps)
	if !ok {
		return false
	}
	f.count = st.count
	f.limit = st.limit
	f.failed = st.failed
	return true
}

type failScheduleState struct {
	cycle int
	count int
}

// SnapshotState captures the schedule cursor and the in-cycle op count.
func (f *FailSchedule) SnapshotState() SystemState {
	return failScheduleState{f.cycle, f.count}
}

func (st failScheduleState) restoreTo(s System) bool {
	f, ok := s.(*FailSchedule)
	if !ok {
		return false
	}
	f.cycle = st.cycle
	f.count = st.count
	return true
}

type recorderState struct {
	inner  SystemState
	points []TracePoint
	ops    int
	dead   float64
}

// SnapshotState captures the wrapped capacitor plus the recorded trace.
func (r *Recorder) SnapshotState() SystemState {
	return recorderState{
		inner:  r.Inner.SnapshotState(),
		points: append([]TracePoint(nil), r.points...),
		ops:    r.ops,
		dead:   r.dead,
	}
}

func (st recorderState) restoreTo(s System) bool {
	r, ok := s.(*Recorder)
	if !ok || !st.inner.restoreTo(r.Inner) {
		return false
	}
	r.points = append(r.points[:0:0], st.points...)
	r.ops = st.ops
	r.dead = st.dead
	return true
}
