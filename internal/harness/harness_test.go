package harness

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

// sonicRuntime returns a fresh SONIC runtime for steady-state tests.
func sonicRuntime() core.Runtime { return sonic.SONIC{} }

// prepQuick prepares one network with small budgets; shared across tests.
var prepCache = map[string]*Prepared{}

func prepQuick(t testing.TB, net string) *Prepared {
	t.Helper()
	if p, ok := prepCache[net]; ok {
		return p
	}
	p, err := Prepare(net, PrepareOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	prepCache[net] = p
	return p
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("x", 1.5)
	tab.AddRow(12, "y")
	out := tab.Render()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "bb") {
		t.Errorf("render missing pieces:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("csv wrong: %q", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Errorf("csv row count wrong: %q", csv)
	}
}

func TestFig1Fig2Shapes(t *testing.T) {
	f1 := Fig1(10)
	if len(f1.Rows) != 11 {
		t.Fatalf("fig1 rows = %d", len(f1.Rows))
	}
	f2 := Fig2(10)
	// At full accuracy, result-only sending beats full-image sending.
	last1 := f1.Rows[len(f1.Rows)-1]
	last2 := f2.Rows[len(f2.Rows)-1]
	v1, err1 := strconv.ParseFloat(last1[4], 64)
	v2, err2 := strconv.ParseFloat(last2[4], 64)
	if err1 != nil || err2 != nil || v2 <= v1 {
		t.Errorf("result-only IMpJ (%s) should exceed full-image (%s)", last2[4], last1[4])
	}
}

func TestTable1(t *testing.T) {
	if len(Table1().Rows) != 6 {
		t.Error("table 1 should list six parameters")
	}
}

func TestFig6WastedWork(t *testing.T) {
	tab := Fig6(40, 120)
	if len(tab.Rows) != 3 {
		t.Fatalf("fig6 rows = %d", len(tab.Rows))
	}
	// tile-12 should either not complete or waste more than tile-5; SONIC
	// completes with minimal waste.
	var sonicRow, t5 []string
	for _, r := range tab.Rows {
		switch r[0] {
		case "sonic":
			sonicRow = r
		case "tile-5":
			t5 = r
		}
	}
	if sonicRow[1] != "ok" {
		t.Error("sonic must complete")
	}
	if sonicRow[3] != "0" && sonicRow[3] != "1" {
		t.Errorf("sonic waste = %s, want <= 1 iteration", sonicRow[3])
	}
	if t5[1] == "ok" && t5[3] == "0" {
		t.Error("tile-5 under failures should waste work")
	}
}

func TestHarnessEndToEndHAR(t *testing.T) {
	p := prepQuick(t, "har")
	ev, err := RunAll([]*Prepared{p})
	if err != nil {
		t.Fatal(err)
	}
	// 6 runtimes x 4 power systems.
	if len(ev.Results) != 24 {
		t.Fatalf("results = %d, want 24", len(ev.Results))
	}

	// Completion shape (§9.1): SONIC and TAILS always complete; base never
	// completes on intermittent power; tile-128 fails at 100uF.
	for _, pw := range []string{"cont", "50mF", "1mF", "100uF"} {
		for _, rt := range []string{"sonic", "tails", "tile-8"} {
			if r := ev.Find("har", rt, pw); !r.Completed {
				t.Errorf("%s @ %s must complete", rt, pw)
			}
		}
	}
	// The compressed HAR model is small enough that a 1 mF (or 50 mF)
	// buffer can fund a whole inference, so Base completes there; the
	// 100 uF system reproduces the paper's non-termination.
	if r := ev.Find("har", "base", "100uF"); r.Completed {
		t.Error("base @ 100uF should not complete")
	}
	if r := ev.Find("har", "tile-128", "100uF"); r.Completed {
		t.Error("tile-128 @ 100uF should not complete")
	}

	// Performance shape on continuous power.
	base := ev.Find("har", "base", "cont").EnergyMJ
	sonic := ev.Find("har", "sonic", "cont").EnergyMJ
	tails := ev.Find("har", "tails", "cont").EnergyMJ
	tile8 := ev.Find("har", "tile-8", "cont").EnergyMJ
	if !(base < sonic && sonic < tile8) {
		t.Errorf("ordering wrong: base %v, sonic %v, tile8 %v", base, sonic, tile8)
	}
	if tails >= sonic {
		t.Errorf("tails (%v) should beat sonic (%v)", tails, sonic)
	}
	if tile8/sonic < 2 {
		t.Errorf("sonic improvement over tile-8 = %.2fx, want > 2x", tile8/sonic)
	}

	// SONIC time consistent across capacitors (steady-state metric).
	s100 := ev.Find("har", "sonic", "100uF").SteadySec
	s50m := ev.Find("har", "sonic", "50mF").SteadySec
	if r := s100 / s50m; r > 1.3 || r < 0.7 {
		t.Errorf("sonic steady time inconsistent: 100uF %v vs 50mF %v", s100, s50m)
	}

	// Figure tables render without panicking and contain the nets.
	for _, tab := range []*Table{Fig9(ev), Fig10(ev), Fig11(ev), Fig12(ev), Claims(ev)} {
		out := tab.Render()
		if len(out) == 0 {
			t.Errorf("%s rendered empty", tab.Title)
		}
	}
	f4, f5 := Fig4(p), Fig5(p)
	if len(f4.Rows) != len(p.Report.Results) || len(f5.Rows) != len(f4.Rows) {
		t.Error("fig4/fig5 row counts wrong")
	}
	if _, err := Ablation(p); err != nil {
		t.Fatal(err)
	}
}

func TestTable2(t *testing.T) {
	p := prepQuick(t, "har")
	tab := Table2([]*Prepared{p})
	if len(tab.Rows) == 0 {
		t.Fatal("table 2 empty")
	}
	if !strings.Contains(tab.Render(), "har") {
		t.Error("table 2 missing network name")
	}
}

// TestCacheRoundtrip: Prepare with a CacheDir writes the chosen model
// where cmd/infer -model can load it back, bit-identical. The report cache
// is seeded from prepQuick's report, so Prepare trains nothing.
func TestCacheRoundtrip(t *testing.T) {
	p := prepQuick(t, "har")
	dir := t.TempDir()
	po := PrepareOptions{Seed: 1, Quick: true, CacheDir: dir}
	if err := saveReportCache(dir, genesisOptions("har", po), p.Report); err != nil {
		t.Fatal(err)
	}
	cached, err := Prepare("har", po)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.CacheHit {
		t.Fatal("Prepare missed the seeded report cache")
	}
	loaded, err := dnn.LoadQuantFile(cachePath(dir, "har"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, cached.Model) || loaded.MACs() != p.Model.MACs() {
		t.Error("cached model differs from the prepared one")
	}
}

func TestFig9LayersAndSVMComparison(t *testing.T) {
	p := prepQuick(t, "har")
	ev, err := RunAll([]*Prepared{p})
	if err != nil {
		t.Fatal(err)
	}
	layers := Fig9Layers(ev)
	if len(layers.Rows) == 0 {
		t.Error("Fig9Layers empty")
	}
	svmTab, err := SVMComparison(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(svmTab.Rows) != 2 {
		t.Errorf("SVM comparison rows = %d", len(svmTab.Rows))
	}
	ext, err := Extensions(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Rows) != 7 {
		t.Errorf("Extensions rows = %d, want 7", len(ext.Rows))
	}
}

// TestSteadyStateProxy validates the SteadySec metric: running several
// consecutive inferences on one intermittent device, the wall-clock time
// per inference (live + dead) must approach the single-run steady-state
// figure, because in steady state every consumed joule is harvested.
func TestSteadyStateProxy(t *testing.T) {
	p := prepQuick(t, "har")
	input := p.Model.QuantizeInput(p.Input)
	pw := Powers()[3] // 100uF

	single, err := Measure(p.Net, p.Model, sonicRuntime(), pw, input)
	if err != nil {
		t.Fatal(err)
	}

	dev := mcu.New(pw.Make())
	img, err := core.Deploy(dev, p.Model)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := sonicRuntime().Infer(img, input); err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	perInference := (st.LiveSeconds(dev.Cost.ClockHz) + st.DeadSeconds) / n
	if rel := perInference/single.SteadySec - 1; rel > 0.15 || rel < -0.15 {
		t.Errorf("repeated-run time %.4fs/inference vs steady proxy %.4fs (rel %.0f%%)",
			perInference, single.SteadySec, rel*100)
	}
}
