package mcu_test

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/trace"
)

// TestTakeStatsEmitsNoEvent: handing the accounting over is bookkeeping,
// not execution. With a tracer attached, TakeStats and Reprovision (both
// reset the accounting to the boot section) add no event to the stream;
// a layer-begin "boot" at cycle 0 after the run's last event would also
// close the charge-cycle analysis at cycle 0.
func TestTakeStatsEmitsNoEvent(t *testing.T) {
	d := mcu.New(energy.Continuous{})
	buf := trace.NewBuffer(256)
	d.SetTracer(buf)
	r := d.FRAM.MustAlloc("x", 4, 2)
	d.SetSection("conv", mcu.PhaseKernel)
	for i := 0; i < 10; i++ {
		d.Store(r, i%4, int64(i))
	}
	d.Progress()
	d.FlushTrace()
	n, before := buf.Len(), buf.Analysis()
	if before.Commits != 1 || before.TotalLiveCycles == 0 {
		t.Fatalf("setup traced %d commits over %d cycles, want 1 over some", before.Commits, before.TotalLiveCycles)
	}
	if st := d.TakeStats(); st.Commits != 1 || st.LiveCycles != before.TotalLiveCycles {
		t.Fatalf("TakeStats: %d commits over %d cycles, trace has %d over %d",
			st.Commits, st.LiveCycles, before.Commits, before.TotalLiveCycles)
	}
	d.Reprovision(energy.Continuous{})
	if buf.Len() != n {
		t.Errorf("TakeStats and Reprovision added events: %+v", buf.Events()[n:])
	}
	if got := buf.Analysis(); !reflect.DeepEqual(got, before) {
		t.Errorf("analysis changed:\n got %+v\nwant %+v", got, before)
	}
	if l, p := d.Section(); l != "boot" || p != mcu.PhaseControl {
		t.Errorf("section after reset = %s/%s, want boot/control", l, p)
	}
}
