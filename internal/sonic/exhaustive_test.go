package sonic

import (
	"math/rand/v2"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/mcu"
)

// tinyModel builds the smallest model exercising conv, relu, sparse and
// dense layers, so one inference is a few thousand device operations and a
// failure can be injected at every single operation boundary.
func tinyModel(t testing.TB) (*dnn.QuantModel, []float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(21, 0))
	n := dnn.NewNetwork("tiny", dnn.Shape{1, 1, 12})
	n.Add(
		dnn.NewConv(rng, 2, 1, 1, 3), // -> 2x1x10
		dnn.NewReLU(),
		dnn.NewFlatten(),
		dnn.NewDense(rng, 8, 20),
		dnn.NewReLU(),
		dnn.NewDense(rng, 3, 8),
	)
	n.Layers[0].(*dnn.Conv).Prune(0.05)
	n.Layers[3] = dnn.NewSparseDense(n.Layers[3].(*dnn.Dense), 0.05)
	ds := dataset.HAR(21, 2, 0)
	x := ds.Train[0].X[:12]
	qm, err := dnn.Quantize(n, [][]float64{x})
	if err != nil {
		t.Fatal(err)
	}
	return qm, x
}

// countOps measures the total operations of one continuous inference.
func countOps(t testing.TB, qm *dnn.QuantModel, x []float64, rt core.Runtime) int64 {
	t.Helper()
	dev := mcu.New(energy.Continuous{})
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Infer(img, qm.QuantizeInput(x)); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range dev.Stats().OpCount {
		total += c
	}
	return total
}

// TestExhaustiveFailureBoundaries is the strongest correctness evidence in
// the suite: for a single power failure placed after EVERY prefix length of
// the instruction stream (1, 2, ..., N ops), SONIC must complete and
// produce the continuous-power result bit-exactly. This covers every
// partially-executed store, every half-finished buffer swap, and every
// checkpoint boundary.
func TestExhaustiveFailureBoundaries(t *testing.T) {
	qm, x := tinyModel(t)
	qin := qm.QuantizeInput(x)
	want := qm.Forward(qin)
	total := countOps(t, qm, x, SONIC{})
	if total > 40000 {
		t.Fatalf("tiny model too big for exhaustive sweep: %d ops", total)
	}
	for n := int64(1); n < total+10; n++ {
		dev := mcu.New(energy.NewFailAfterOps(int(n), 0)) // one failure, then continuous
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (SONIC{}).Infer(img, qin)
		if err != nil {
			t.Fatalf("failure after op %d: %v", n, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("failure after op %d corrupted logit %d: got %d want %d",
					n, i, got[i], want[i])
			}
		}
	}
	t.Logf("verified all %d single-failure placements", total+9)
}

// The same sweep for the tiled Alpaca implementation (sparser stride keeps
// the test fast; the redo-log protocol has no per-op phase variety beyond
// its period anyway).
func TestExhaustiveFailureBoundariesTile(t *testing.T) {
	qm, x := tinyModel(t)
	qin := qm.QuantizeInput(x)
	want := qm.Forward(qin)
	rt := baseline.Tile{TileSize: 4}
	total := countOps(t, qm, x, rt)
	for n := int64(1); n < total+10; n += 3 {
		dev := mcu.New(energy.NewFailAfterOps(int(n), 0))
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Infer(img, qin)
		if err != nil {
			t.Fatalf("failure after op %d: %v", n, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("failure after op %d corrupted logit %d", n, i)
			}
		}
	}
}
