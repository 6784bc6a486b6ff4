package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// testModel builds a small quantized model with all layer kinds.
func testModel(t testing.TB) *dnn.QuantModel {
	t.Helper()
	n := dnn.HARNet(1)
	n.Layers[0].(*dnn.Conv).Prune(0.05)
	n.Layers[3] = dnn.NewSparseDense(n.Layers[3].(*dnn.Dense), 0.03)
	ds := dataset.HAR(1, 4, 0)
	qm, err := dnn.Quantize(n, [][]float64{ds.Train[0].X})
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func TestDeployAllocatesAndInitializes(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	qm := testModel(t)
	before := dev.FRAM.Used()
	img, err := Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	if dev.FRAM.Used() <= before {
		t.Error("deploy should consume FRAM")
	}
	// Weights landed in FRAM verbatim.
	l0 := img.Layers[0]
	for j := 0; j < 10; j++ {
		if fixed.Q15(l0.W.Get(j)) != qm.Layers[0].W[j] {
			t.Fatalf("weight %d not flashed", j)
		}
	}
	// Pruned conv gets NZ and FinPar tables.
	if l0.NZ == nil || l0.FinPar == nil {
		t.Error("pruned conv should have NZ and FinPar regions")
	}
	// Sparse FC gets CSR structures.
	var sawSparse bool
	for _, li := range img.Layers {
		if li.Q.Kind == dnn.QSparseDense {
			sawSparse = true
			if li.Cols == nil || li.RowPtr == nil {
				t.Error("sparse layer missing CSR regions")
			}
		}
	}
	if !sawSparse {
		t.Fatal("test model should contain a sparse layer")
	}
	// Release returns all memory.
	img.Release()
	if dev.FRAM.Used() != before {
		t.Errorf("release leaked: %d != %d", dev.FRAM.Used(), before)
	}
}

func TestDeployFailsWhenTooBig(t *testing.T) {
	// A device with a tiny FRAM cannot hold the model.
	fram := mem.New(mem.FRAM, 1024)
	sram := mem.New(mem.SRAM, mem.DefaultSRAMBytes)
	dev := mcu.NewWithMem(energy.Continuous{}, fram, sram)
	if _, err := Deploy(dev, testModel(t)); err == nil {
		t.Error("deploy into 1KB FRAM should fail")
	}
}

func TestFinParContents(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	qm := testModel(t)
	img, err := Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	q := qm.Layers[0]
	epf := q.C * q.KH * q.KW
	// Recompute expected last-parity per filter from the NZ list.
	want := make([]int64, q.F)
	for f := range want {
		want[f] = -1
	}
	for p, widx := range q.NZ {
		want[int(widx)/epf] = int64(p & 1)
	}
	for f := 0; f < q.F; f++ {
		if got := img.Layers[0].FinPar.Get(f); got != want[f] {
			t.Errorf("FinPar[%d] = %d, want %d", f, got, want[f])
		}
	}
}

func TestLoadInputAndReadOutput(t *testing.T) {
	dev := mcu.New(energy.Continuous{})
	qm := testModel(t)
	img, err := Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]fixed.Q15, qm.In.Len())
	for i := range x {
		x[i] = fixed.Q15(i % 100)
	}
	img.Ctl.Put(3, 99) // dirty the control block
	if err := img.LoadInput(x); err != nil {
		t.Fatal(err)
	}
	if img.ActA.Get(5) != 5 {
		t.Error("input not loaded into ActA")
	}
	if img.Ctl.Get(3) != 0 {
		t.Error("control block not cleared")
	}
	// Cal persists across LoadInput.
	img.Cal.Put(0, 123)
	if err := img.LoadInput(x); err != nil {
		t.Fatal(err)
	}
	if img.Cal.Get(0) != 123 {
		t.Error("calibration state must survive LoadInput")
	}
	// Wrong length rejected.
	if err := img.LoadInput(x[:3]); err == nil {
		t.Error("short input should be rejected")
	}
	// ReadOutput pulls from the requested buffer.
	img.ActB.Put(0, 42)
	out := img.ReadOutput(true)
	if out[0] != 42 {
		t.Errorf("ReadOutput(B)[0] = %d", out[0])
	}
	if len(out) != qm.Layers[len(qm.Layers)-1].OutShape.Len() {
		t.Errorf("output length %d", len(out))
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]fixed.Q15{-5, 3, 2}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]fixed.Q15{fixed.MinusOne}) != 0 {
		t.Error("single-element argmax wrong")
	}
}

func TestLayerName(t *testing.T) {
	qm := testModel(t)
	names := make([]string, len(qm.Layers))
	for i := range qm.Layers {
		names[i] = LayerName(qm, i)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "conv1") || !strings.Contains(joined, "fc") ||
		!strings.Contains(joined, "other") {
		t.Errorf("layer names = %v", names)
	}
	// Conv numbering increments.
	n := dnn.MNISTNet(1)
	ds := dataset.Digits(1, 2, 0)
	qm2, err := dnn.Quantize(n, [][]float64{ds.Train[0].X})
	if err != nil {
		t.Fatal(err)
	}
	if LayerName(qm2, 0) != "conv1" || LayerName(qm2, 3) != "conv2" {
		t.Errorf("conv numbering wrong: %s %s", LayerName(qm2, 0), LayerName(qm2, 3))
	}
}

// scratchPrep is a Runtime whose prepared state is one FRAM and one SRAM
// region, allocated after the deployed ones.
type scratchPrep struct{}

func (scratchPrep) Name() string { return "scratch" }

func (r scratchPrep) Infer(img *Image, input []fixed.Q15) ([]fixed.Q15, error) {
	return InferOnce(r, img, input)
}

type scratchRun struct {
	dev        *mcu.Device
	fram, sram *mem.Region
}

func (scratchPrep) Prepare(img *Image) (Prepared, error) {
	return &scratchRun{img.Dev, img.Dev.FRAM.MustAlloc("prep.fram", 8, 2), img.Dev.SRAM.MustAlloc("prep.sram", 8, 2)}, nil
}

func (p *scratchRun) ResumeInfer(func() error) ([]fixed.Q15, error) { return nil, nil }

func (p *scratchRun) Release() {
	p.dev.FRAM.Release(p.fram)
	p.dev.SRAM.Release(p.sram)
}

// TestSlotKeepsPreparedRegions: a slot's prepared runtime survives
// Provision untouched — its regions trail the template's, which alone are
// rewound — and a run that leaves either bank with more or fewer regions
// than the slot was built with fails the next Provision.
func TestSlotKeepsPreparedRegions(t *testing.T) {
	tmpl, err := NewTemplate(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := tmpl.NewSlot(mcu.New(energy.Continuous{}), scratchPrep{})
	if err != nil {
		t.Fatal(err)
	}
	run := sl.Run.(*scratchRun)
	run.fram.Put(0, 7)
	sl.Img.ActA.Put(0, 9)
	if _, err := sl.Provision(energy.Continuous{}); err != nil {
		t.Fatal(err)
	}
	if sl.Img.ActA.Get(0) != 0 {
		t.Error("Provision did not rewind the deployed image")
	}
	if run.fram.Get(0) != 7 || run.fram.Released() || run.sram.Released() {
		t.Error("Provision touched the prepared runtime's regions")
	}

	extra := sl.Dev.SRAM.MustAlloc("leak", 4, 2)
	if _, err := sl.Provision(energy.Continuous{}); err == nil {
		t.Error("Provision accepted a bank holding a leaked region")
	}
	sl.Dev.SRAM.Release(extra)
	run.Release()
	if _, err := sl.Provision(energy.Continuous{}); err == nil {
		t.Error("Provision accepted banks missing the prepared regions")
	}
}
