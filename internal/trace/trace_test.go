package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
)

// ev builds a synthetic event.
func ev(k mcu.TraceKind, cycles int64, energyNJ float64, label string, arg int64) Event {
	return Event{Kind: k, Cycles: cycles, EnergyNJ: energyNJ, LevelNJ: -1, Label: label, Arg: arg}
}

func TestRingWrap(t *testing.T) {
	b := NewBuffer(4)
	for i := int64(0); i < 10; i++ {
		b.TraceEvent(ev(mcu.TraceOpBatch, i, float64(i), "l", 1))
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if b.Drops() != 6 {
		t.Fatalf("Drops = %d, want 6", b.Drops())
	}
	got := b.Events()
	if len(got) != 4 {
		t.Fatalf("Events len = %d", len(got))
	}
	for i, e := range got {
		if e.Cycles != int64(6+i) {
			t.Errorf("event %d: cycles %d, want %d (oldest-first order)", i, e.Cycles, 6+i)
		}
	}
	b.Reset()
	if b.Len() != 0 || b.Drops() != 0 || len(b.Events()) != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestAnalysisSyntheticRun(t *testing.T) {
	b := NewBuffer(0)
	// Cycle 0: commit at 100 cycles/50 nJ, brown-out at 180/90, reboot.
	b.TraceEvent(ev(mcu.TraceRunBegin, 0, 0, "sonic", 0))
	b.TraceEvent(ev(mcu.TraceOpBatch, 80, 40, "conv1", 80))
	b.TraceEvent(ev(mcu.TraceCommit, 100, 50, "conv1", 0))
	b.TraceEvent(ev(mcu.TraceBrownOut, 180, 90, "conv1", 0))
	b.TraceEvent(ev(mcu.TraceReboot, 180, 90, "", 1))
	rc := ev(mcu.TraceRechargeDone, 180, 90, "", 0)
	rc.DeadSec = 0.25
	b.TraceEvent(rc)
	// Cycle 1: no commit before the brown-out: whole cycle wasted.
	b.TraceEvent(ev(mcu.TraceBrownOut, 260, 130, "conv2", 0))
	b.TraceEvent(ev(mcu.TraceReboot, 260, 130, "", 2))
	// Cycle 2: commits, then the run ends cleanly.
	b.TraceEvent(ev(mcu.TraceCommit, 300, 150, "conv2", 0))
	b.TraceEvent(ev(mcu.TraceOpBatch, 340, 170, "fc", 40))

	a := b.Analysis()
	if len(a.Cycles) != 3 {
		t.Fatalf("cycles = %d, want 3", len(a.Cycles))
	}
	if a.Reboots != 2 || a.Commits != 2 {
		t.Fatalf("reboots %d commits %d, want 2/2", a.Reboots, a.Commits)
	}
	c0 := a.Cycles[0]
	if !c0.BrownedOut || c0.FailedIn != "conv1" {
		t.Errorf("cycle 0: %+v", c0)
	}
	if c0.WastedCycles != 80 || c0.WastedEnergyNJ != 40 {
		t.Errorf("cycle 0 waste = %d cyc %.0f nJ, want 80/40", c0.WastedCycles, c0.WastedEnergyNJ)
	}
	c1 := a.Cycles[1]
	if c1.WastedCycles != 80 || c1.WastedEnergyNJ != 40 {
		t.Errorf("cycle 1 (commitless) waste = %d cyc %.0f nJ, want 80/40", c1.WastedCycles, c1.WastedEnergyNJ)
	}
	if c1.RechargeSec != 0.25 {
		t.Errorf("cycle 1 recharge = %v, want 0.25", c1.RechargeSec)
	}
	c2 := a.Cycles[2]
	if c2.BrownedOut || c2.WastedEnergyNJ != 0 || c2.Commits != 1 {
		t.Errorf("cycle 2: %+v", c2)
	}
	if a.TotalWastedEnergyNJ != 80 {
		t.Errorf("total wasted = %.0f, want 80", a.TotalWastedEnergyNJ)
	}
	if got := a.WastedEnergyPerCycleNJ(); got != 40 {
		t.Errorf("wasted/cycle = %.0f, want 40", got)
	}
	if a.TotalLiveCycles != 340 || a.TotalEnergyNJ != 170 {
		t.Errorf("totals: %d cyc %.0f nJ", a.TotalLiveCycles, a.TotalEnergyNJ)
	}
	if !strings.Contains(a.String(), "2 reboots") {
		t.Errorf("summary: %s", a.String())
	}
}

// TestCommitCounts pins the TraceCommit Arg rule: a coalesced commit from
// a fused span counts Arg commits, a Progress commit (Arg 1) one, and a
// legacy or hand-built commit without a count (Arg <= 0) also one — in the
// online analysis, the Chrome commit instants, and the CSV rows alike.
func TestCommitCounts(t *testing.T) {
	b := NewBuffer(0)
	b.TraceEvent(ev(mcu.TraceRunBegin, 0, 0, "sonic", 0))
	b.TraceEvent(ev(mcu.TraceCommit, 50, 25, "conv1", 5)) // fused span of 5
	b.TraceEvent(ev(mcu.TraceCommit, 60, 30, "conv1", 0)) // legacy, no count
	b.TraceEvent(ev(mcu.TraceCommit, 70, 35, "conv1", 1)) // Progress
	b.TraceEvent(ev(mcu.TraceBrownOut, 90, 45, "conv1", 0))
	b.TraceEvent(ev(mcu.TraceReboot, 90, 45, "", 1))
	b.TraceEvent(ev(mcu.TraceCommit, 130, 65, "fc", 3))
	b.TraceEvent(ev(mcu.TraceCommit, 140, 70, "fc", -2)) // malformed: one

	a := b.Analysis()
	if len(a.Cycles) != 2 || a.Cycles[0].Commits != 7 || a.Cycles[1].Commits != 4 || a.Commits != 11 {
		t.Fatalf("commits = %d total, per cycle %+v; want 7 + 4 = 11", a.Commits, a.Cycles)
	}
	// The coalesced commit's timestamp is its span's last commit, so
	// wasted work still measures from the cycle's final commit.
	if c0 := a.Cycles[0]; c0.WastedCycles != 20 || c0.WastedEnergyNJ != 10 {
		t.Errorf("cycle 0 waste = %d cyc %.0f nJ, want 20/10", c0.WastedCycles, c0.WastedEnergyNJ)
	}
	want := []float64{5, 1, 1, 3, 1}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, b.Events(), ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var got []float64
	for _, e := range f.TraceEvents {
		if e.Name == "commit" {
			n, _ := e.Args["commits"].(float64)
			got = append(got, n)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chrome commit counts = %v, want %v", got, want)
	}

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, b.Events(), 16e6); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, r := range rows[1:] {
		if r[0] == "commit" {
			n, err := strconv.ParseFloat(r[7], 64)
			if err != nil {
				t.Fatalf("csv arg %q: %v", r[7], err)
			}
			got = append(got, n)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("csv commit counts = %v, want %v", got, want)
	}
}

// TestAnalysisSurvivesWrap checks the aggregates stay exact when the ring
// has long since overwritten the events they came from. Its commits carry
// no count (Arg 0), as pre-coalescing streams did, and count one each.
func TestAnalysisSurvivesWrap(t *testing.T) {
	b := NewBuffer(8)
	for i := int64(0); i < 100; i++ {
		base := i * 100
		b.TraceEvent(ev(mcu.TraceCommit, base+50, float64(base+50), "l", 0))
		b.TraceEvent(ev(mcu.TraceBrownOut, base+100, float64(base+100), "l", 0))
		b.TraceEvent(ev(mcu.TraceReboot, base+100, float64(base+100), "", i+1))
	}
	a := b.Analysis()
	if a.Reboots != 100 || a.Commits != 100 {
		t.Fatalf("reboots %d commits %d", a.Reboots, a.Commits)
	}
	if a.TotalWastedCycles != 100*50 {
		t.Errorf("wasted cycles = %d, want 5000", a.TotalWastedCycles)
	}
	if a.Drops == 0 {
		t.Error("expected ring drops")
	}
}

// chromeFile matches the exported JSON shape.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChrome(t *testing.T) {
	events := []Event{
		{Kind: mcu.TraceRunBegin, Label: "sonic", LevelNJ: -1},
		{Kind: mcu.TraceOpBatch, Cycles: 1000, EnergyNJ: 500, LevelNJ: 14000, Label: "conv1", Arg: 1000},
		{Kind: mcu.TraceBrownOut, Cycles: 1600, EnergyNJ: 800, LevelNJ: 0, Label: "conv1"},
		{Kind: mcu.TraceReboot, Cycles: 1600, EnergyNJ: 800, LevelNJ: 0, Arg: 1},
		{Kind: mcu.TraceRechargeDone, Cycles: 1600, EnergyNJ: 800, DeadSec: 0.1, LevelNJ: 14700},
		{Kind: mcu.TraceCommit, Cycles: 1900, EnergyNJ: 950, DeadSec: 0.1, LevelNJ: 12000, Label: "conv1"},
	}
	cap := energy.Cap100uF
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, ChromeOptions{ClockHz: 16e6, Capacitor: &cap}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var sawReboot, sawCommit, sawVoltage, sawSlice bool
	for _, e := range f.TraceEvents {
		switch {
		case strings.HasPrefix(e.Name, "reboot"):
			sawReboot = true
		case e.Name == "commit":
			sawCommit = true
		case e.Name == "voltage" && e.Ph == "C":
			sawVoltage = true
		case e.Name == "conv1" && e.Ph == "X":
			sawSlice = true
			// 1000 cycles at 16 MHz = 62.5 us, starting at the run-begin ts.
			if e.Dur < 60 || e.Dur > 65 {
				t.Errorf("conv1 slice dur = %v us", e.Dur)
			}
		}
	}
	if !sawReboot || !sawCommit || !sawVoltage || !sawSlice {
		t.Errorf("missing tracks: reboot %v commit %v voltage %v slice %v",
			sawReboot, sawCommit, sawVoltage, sawSlice)
	}
	// Dead time shifts later events' wall-clock position.
	for _, e := range f.TraceEvents {
		if e.Name == "commit" {
			want := (1900.0/16e6 + 0.1) * 1e6
			if e.Ts < want-1 || e.Ts > want+1 {
				t.Errorf("commit ts = %v, want ~%v", e.Ts, want)
			}
		}
	}
}

func TestWriteCSVAndTimeline(t *testing.T) {
	b := NewBuffer(0)
	b.TraceEvent(ev(mcu.TraceOpBatch, 100, 50, "conv1", 100))
	b.TraceEvent(ev(mcu.TraceBrownOut, 150, 75, "conv1", 0))
	b.TraceEvent(ev(mcu.TraceReboot, 150, 75, "", 1))
	b.TraceEvent(ev(mcu.TraceCommit, 200, 100, "conv1", 0))

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, b.Events(), 16e6); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d, want header + 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "kind,cycles,wall_us") {
		t.Errorf("csv header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[2], "brown-out,150") {
		t.Errorf("csv row: %s", lines[2])
	}

	var tl bytes.Buffer
	if err := WriteTimeline(&tl, b.Analysis()); err != nil {
		t.Fatal(err)
	}
	out := tl.String()
	if !strings.Contains(out, "† conv1") || !strings.Contains(out, "1 reboots") {
		t.Errorf("timeline:\n%s", out)
	}
}
