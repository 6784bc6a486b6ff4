package mcu

import (
	"testing"

	"repro/internal/energy"
)

func TestWARCheckFlagsReadThenWrite(t *testing.T) {
	d := New(energy.Continuous{})
	d.EnableWARCheck()
	r := d.FRAM.MustAlloc("data", 8, 2)
	d.SetSection("fc", PhaseKernel)

	d.Load(r, 3)
	d.Store(r, 3, 42)
	if d.WARCount() != 1 {
		t.Fatalf("WARCount = %d, want 1", d.WARCount())
	}
	v := d.WARViolations()[0]
	if v.Region != "data" || v.Index != 3 || v.Layer != "fc" || v.Phase != PhaseKernel {
		t.Errorf("violation metadata = %+v", v)
	}
	if v.Op != 2 {
		t.Errorf("violation op = %d, want 2 (the flagging store)", v.Op)
	}
}

func TestWARCheckProgressResetsRegion(t *testing.T) {
	d := New(energy.Continuous{})
	d.EnableWARCheck()
	r := d.FRAM.MustAlloc("data", 8, 2)

	d.Load(r, 0)
	d.Progress()
	d.Store(r, 0, 1)
	if d.WARCount() != 0 {
		t.Fatalf("write in fresh commit region flagged (%d violations)", d.WARCount())
	}
}

func TestWARCheckAttemptFailureResetsRegion(t *testing.T) {
	d := New(energy.NewFailAfterOps(2, 0))
	d.EnableWARCheck()
	r := d.FRAM.MustAlloc("data", 8, 2)

	if d.Attempt(func() {
		d.Load(r, 0)     // op 1
		d.Store(r, 5, 0) // op 2: brown-out, store never lands
	}) {
		t.Fatal("attempt should have browned out")
	}
	if err := d.Reboot(); err != nil {
		t.Fatal(err)
	}
	// The aborted region's read must not poison the replay.
	if !d.Attempt(func() {
		d.Store(r, 0, 1)
	}) {
		t.Fatal("retry browned out unexpectedly")
	}
	if d.WARCount() != 0 {
		t.Fatalf("replay write flagged (%d violations)", d.WARCount())
	}
}

func TestWARCheckProtocolAndLogged(t *testing.T) {
	d := New(energy.Continuous{})
	proto := d.FRAM.MustAlloc("ctl", 8, 2)
	d.MarkProtocol(proto) // before enable: must survive EnableWARCheck
	d.EnableWARCheck()
	data := d.FRAM.MustAlloc("data", 8, 2)

	d.Load(proto, 0)
	d.Store(proto, 0, 1)
	if d.WARCount() != 0 {
		t.Fatal("protocol region flagged")
	}

	d.Load(data, 1)
	d.MarkLogged(data, 1)
	d.Store(data, 1, 7)
	if d.WARCount() != 0 {
		t.Fatal("undo-logged word flagged")
	}

	// MarkProtocol after enable works too.
	late := d.FRAM.MustAlloc("late", 4, 2)
	d.MarkProtocol(late)
	d.Load(late, 0)
	d.Store(late, 0, 1)
	if d.WARCount() != 0 {
		t.Fatal("late protocol region flagged")
	}
}

func TestWARCheckDMA(t *testing.T) {
	d := New(energy.Continuous{})
	d.EnableWARCheck()
	a := d.FRAM.MustAlloc("a", 8, 2)
	b := d.FRAM.MustAlloc("b", 8, 2)

	// DMA read of a, then DMA overwrite of the same words: WAR.
	d.DMA(b, 0, a, 0, 4)
	d.DMA(a, 0, b, 0, 4)
	if d.WARCount() != 4 {
		t.Fatalf("WARCount = %d, want 4 (one per overwritten word)", d.WARCount())
	}
}

func TestWARCheckDisabledByDefault(t *testing.T) {
	d := New(energy.Continuous{})
	r := d.FRAM.MustAlloc("data", 8, 2)
	d.Load(r, 0)
	d.Store(r, 0, 1)
	if d.WARCount() != 0 {
		t.Fatal("violations recorded by default; WAR checking must be opt-in")
	}
}

func TestMaxRegionOps(t *testing.T) {
	d := New(energy.Continuous{})
	r := d.FRAM.MustAlloc("data", 8, 2)
	for i := 0; i < 5; i++ {
		d.Store(r, 0, int64(i))
	}
	d.Progress() // region of 5 ops
	d.Store(r, 0, 9)
	d.Progress() // region of 1 op
	if got := d.Stats().MaxRegionOps; got != 5 {
		t.Fatalf("MaxRegionOps = %d, want 5", got)
	}
}
