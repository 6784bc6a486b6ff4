package mem

import "testing"

func shadowFixture(t *testing.T) (*Shadow, *Region, *Region) {
	t.Helper()
	fram := New(FRAM, 4096)
	sram := New(SRAM, 4096)
	nv := fram.MustAlloc("nv", 16, 2)
	v := sram.MustAlloc("v", 16, 2)
	return NewShadow(), nv, v
}

func TestShadowWARDetection(t *testing.T) {
	s, nv, _ := shadowFixture(t)

	// Write-dominated word: never a violation.
	if s.OnWrite(nv, 0) {
		t.Error("first-access write flagged")
	}
	s.OnRead(nv, 0)
	if s.OnWrite(nv, 0) {
		t.Error("write after write-dominated read flagged")
	}

	// Read-first word: the later write is the WAR hazard.
	s.OnRead(nv, 1)
	if !s.OnWrite(nv, 1) {
		t.Error("write-after-read not flagged")
	}
	// Reported once per word per region, not per write.
	if s.OnWrite(nv, 1) {
		t.Error("same hazard flagged twice")
	}
}

func TestShadowCommitAndAbortReset(t *testing.T) {
	s, nv, _ := shadowFixture(t)

	s.OnRead(nv, 2)
	s.Commit()
	if s.OnWrite(nv, 2) {
		t.Error("write after commit flagged: commit must reset word states")
	}

	s.Commit() // also clears the write mark
	s.OnRead(nv, 2)
	s.Abort()
	if s.OnWrite(nv, 2) {
		t.Error("write after abort flagged: abort must reset word states")
	}
}

func TestShadowLoggedWordExempt(t *testing.T) {
	s, nv, _ := shadowFixture(t)

	s.OnRead(nv, 3)
	s.NoteLogged(nv, 3)
	if s.OnWrite(nv, 3) {
		t.Error("undo-logged word flagged")
	}

	// The sanction ends at commit.
	s.Commit()
	s.OnRead(nv, 3)
	if !s.OnWrite(nv, 3) {
		t.Error("logged sanction leaked past commit")
	}
}

func TestShadowExemptRegion(t *testing.T) {
	s, nv, _ := shadowFixture(t)
	s.Exempt(nv)
	s.OnRead(nv, 4)
	if s.OnWrite(nv, 4) {
		t.Error("exempt region flagged")
	}
}

func TestShadowIgnoresSRAM(t *testing.T) {
	s, _, v := shadowFixture(t)
	s.OnRead(v, 0)
	if s.OnWrite(v, 0) {
		t.Error("volatile SRAM access flagged: reboot clears it, no WAR possible")
	}
}

func TestShadowResetForgetsReleasedRegions(t *testing.T) {
	fram := New(FRAM, 1<<16)
	s := NewShadow()
	ctl := fram.MustAlloc("ctl", 4, 2)
	s.Exempt(ctl)
	// A per-run protocol region and a per-run scratch region, both touched
	// and then released, ahead of a long-lived region in first-seen order.
	log := fram.MustAlloc("log", 64, 4)
	s.Exempt(log)
	tmp := fram.MustAlloc("tmp", 8, 2)
	s.OnRead(tmp, 0)
	live := fram.MustAlloc("live", 8, 2)
	s.OnRead(live, 1)
	fram.Release(log)
	fram.Release(tmp)

	s.Reset()
	if len(s.regs) != 2 || len(s.index) != 2 {
		t.Fatalf("after Reset the shadow tracks %d regions (%d indexed), want ctl and live", len(s.regs), len(s.index))
	}
	if s.OnWrite(live, 1) {
		t.Error("in-flight read survived Reset")
	}
	// live moved in the compacted entry list; its cached position must
	// have moved with it.
	s.OnRead(live, 2)
	if !s.OnWrite(live, 2) {
		t.Error("write-after-read on a live region missed after Reset")
	}
	s.OnRead(ctl, 0)
	if s.OnWrite(ctl, 0) {
		t.Error("Reset forgot a live region's exemption")
	}
}
