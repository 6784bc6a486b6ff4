package dnn

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestDenseOutShapeError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	d := NewDense(rng, 4, 10)
	if _, err := d.OutShape(Shape{1, 1, 9}); err == nil {
		t.Error("wrong input length should error")
	}
}

func TestSparseDenseOutShapeError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	sd := NewSparseDense(NewDense(rng, 4, 10), 0.1)
	if _, err := sd.OutShape(Shape{1, 1, 3}); err == nil {
		t.Error("wrong input length should error")
	}
}

func TestMaxPoolWindow3(t *testing.T) {
	p := NewMaxPool(3)
	out, err := p.OutShape(Shape{2, 9, 6})
	if err != nil || out != (Shape{2, 3, 2}) {
		t.Fatalf("OutShape = %v, %v", out, err)
	}
	rng := rand.New(rand.NewPCG(2, 0))
	checkLayerGradients(t, Shape{2, 9, 6}, NewMaxPool(3))
	_ = rng
}

func TestValidateReportsLayerIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	n := NewNetwork("bad", Shape{1, 4, 4})
	n.Add(NewFlatten(), NewDense(rng, 2, 99)) // 16 != 99
	_, err := n.Validate()
	if err == nil || !strings.Contains(err.Error(), "layer 1") {
		t.Errorf("error should identify layer 1: %v", err)
	}
}

func TestForwardPanicsOnWrongLength(t *testing.T) {
	n := HARNet(1)
	defer func() {
		if recover() == nil {
			t.Error("wrong input length should panic")
		}
	}()
	n.Forward(make([]float64, 5))
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadQuantFile("/nonexistent/m.qmodel"); err == nil {
		t.Error("missing quant file should error")
	}
}

func TestQuantFileRoundtrip(t *testing.T) {
	n := HARNet(1)
	ds := dataset.HAR(1, 2, 1)
	qm, err := Quantize(n, [][]float64{ds.Train[0].X})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.qmodel"
	if err := qm.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	qm2, err := LoadQuantFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Forward results must be identical.
	x := qm.QuantizeInput(ds.Test[0].X)
	a, b := qm.Forward(x), qm2.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logit %d differs after roundtrip", i)
		}
	}
	if qm2.MACs() != qm.MACs() || qm2.WeightWords() != qm.WeightWords() {
		t.Error("metadata differs after roundtrip")
	}
}

func TestTrainZeroEpochs(t *testing.T) {
	n := HARNet(1)
	ds := dataset.HAR(1, 10, 2)
	loss := Train(n, ds, TrainConfig{Epochs: 0})
	if loss == loss { // NaN check: NaN != NaN
		t.Error("zero epochs should return NaN loss")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	n := HARNet(1)
	if Evaluate(n, nil) != 0 {
		t.Error("empty evaluation should be 0")
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Len() != 24 || s.Flat() != (Shape{1, 1, 24}) {
		t.Error("shape helpers wrong")
	}
	if s.String() != "2x3x4" {
		t.Errorf("String = %q", s.String())
	}
}

func TestConvPruneAllAndNone(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	c := NewConv(rng, 2, 1, 3, 3)
	if kept := c.Prune(1e9); kept != 0 {
		t.Errorf("pruning everything kept %d", kept)
	}
	c2 := NewConv(rng, 2, 1, 3, 3)
	if kept := c2.Prune(0); kept != c2.W.Len() {
		t.Errorf("zero threshold kept %d of %d", kept, c2.W.Len())
	}
}

func TestQuantizeFullyPrunedConv(t *testing.T) {
	// A conv with every weight pruned must quantize to an empty NZ list
	// and still run (outputs = bias only).
	rng := rand.New(rand.NewPCG(5, 0))
	n := NewNetwork("deadconv", Shape{1, 6, 6})
	conv := NewConv(rng, 2, 1, 3, 3)
	conv.Prune(1e9)
	conv.B.Set(0.25, 0)
	conv.B.Set(-0.25, 1)
	n.Add(conv, NewFlatten(), NewDense(rng, 2, 32))
	x := make([]float64, 36)
	for i := range x {
		x[i] = 0.3
	}
	qm, err := Quantize(n, [][]float64{x})
	if err != nil {
		t.Fatal(err)
	}
	if len(qm.Layers[0].NZ) != 0 {
		t.Errorf("NZ should be empty, got %d", len(qm.Layers[0].NZ))
	}
	out := qm.Forward(qm.QuantizeInput(x))
	if len(out) != 2 {
		t.Fatal("bad output")
	}
}
