package dnn

import (
	"bytes"
	"runtime"
	"sync"

	"repro/internal/dataset"
)

// This file shards inference-only passes (Evaluate, Confusion) over a pool
// of per-worker network clones. Clones are mandatory: layers cache
// activations between Forward and Backward, so a single Network is never
// goroutine-safe. Each worker decodes a private copy of the network from a
// once-encoded gob blob and walks a contiguous shard of the examples.
//
// The reductions are integer counts (correct predictions, confusion-cell
// tallies), which are order-independent, so the sharded result is
// bit-identical to the serial one for any worker count. That equivalence is
// what lets genesis run the sweep with any worker count and still produce
// the Workers 1 report (TestGenesisParallelDeterministic).

// minShard is the smallest number of examples worth a dedicated worker;
// below it the clone-decode cost dominates.
const minShard = 32

// evalWorkers resolves a caller-supplied worker count: <= 0 means "auto"
// (GOMAXPROCS, capped so each worker gets at least minShard examples).
func evalWorkers(workers, n int) int {
	if workers > 0 {
		if workers > n {
			return max(n, 1)
		}
		return workers
	}
	w := runtime.GOMAXPROCS(0)
	if byLoad := n / minShard; byLoad < w {
		w = byLoad
	}
	return max(w, 1)
}

// cloneFromBlob materializes an independent network from an Encode blob.
func cloneFromBlob(blob []byte) *Network {
	c, err := Decode(bytes.NewReader(blob))
	if err != nil {
		panic(err) // blob came from Encode on a valid network
	}
	return c
}

// shardBounds returns the half-open range of examples for worker w of ws.
func shardBounds(w, ws, n int) (lo, hi int) {
	return w * n / ws, (w + 1) * n / ws
}

// EvaluateWorkers returns top-1 accuracy on the given examples using the
// requested number of workers (<= 0 = auto, 1 = serial on n itself). The
// result is bit-identical for every worker count.
func EvaluateWorkers(n *Network, examples []dataset.Example, workers int) float64 {
	if len(examples) == 0 {
		return 0
	}
	ws := evalWorkers(workers, len(examples))
	if ws <= 1 {
		return float64(countCorrect(n, examples)) / float64(len(examples))
	}
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		panic(err)
	}
	blob := buf.Bytes()
	counts := make([]int, ws)
	var wg sync.WaitGroup
	for w := 0; w < ws; w++ {
		lo, hi := shardBounds(w, ws, len(examples))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			counts[w] = countCorrect(cloneFromBlob(blob), examples[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(len(examples))
}

func countCorrect(n *Network, examples []dataset.Example) int {
	correct := 0
	for _, ex := range examples {
		if n.Infer(ex.X) == ex.Label {
			correct++
		}
	}
	return correct
}

// ConfusionWorkers returns the confusion matrix m[true][predicted] over
// examples using the requested number of workers (<= 0 = auto, 1 = serial
// on n itself). The result is bit-identical for every worker count.
func ConfusionWorkers(n *Network, examples []dataset.Example, classes, workers int) [][]int {
	ws := evalWorkers(workers, len(examples))
	if ws <= 1 || len(examples) == 0 {
		return confusionInto(newConfusion(classes), n, examples)
	}
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		panic(err)
	}
	blob := buf.Bytes()
	parts := make([][][]int, ws)
	var wg sync.WaitGroup
	for w := 0; w < ws; w++ {
		lo, hi := shardBounds(w, ws, len(examples))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = confusionInto(newConfusion(classes), cloneFromBlob(blob), examples[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	m := newConfusion(classes)
	for _, part := range parts {
		for t, row := range part {
			for p, count := range row {
				m[t][p] += count
			}
		}
	}
	return m
}

func newConfusion(classes int) [][]int {
	m := make([][]int, classes)
	for i := range m {
		m[i] = make([]int, classes)
	}
	return m
}

func confusionInto(m [][]int, n *Network, examples []dataset.Example) [][]int {
	for _, ex := range examples {
		m[ex.Label][n.Infer(ex.X)]++
	}
	return m
}
