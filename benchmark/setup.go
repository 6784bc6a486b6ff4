package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/serve"
)

// modelSeed pins the networks every workload runs; -seed varies only the
// generated inputs (fleet and job spec seeds, the arrival schedule).
const modelSeed = 1

// simWorkers is the simulation fan-out of fleet campaigns, brown-out
// sweeps and the job server. It is fixed rather than read from the
// machine, so runs compare across hosts and the load stays within two
// cores; the serve load generator likewise holds two connections.
const simWorkers = 2

// env is what the workloads share after set-up: the three prepared
// evaluation networks, their fleet registry, and a warm serving model cache.
type env struct {
	prepped []*harness.Prepared
	models  map[string]fleet.Model
	cache   *serve.ModelCache

	setupS, prepareS, warmupS float64   // wall times: set-up, its GENESIS part, its server warm-up
	trainEpochs               int64     // training epochs of one cold set-up
	setupRefS                 []float64 // every set-up rep of the run, in reference seconds
}

// setupOnce is the benchmark's set-up, cold: GENESIS preparation of all
// three networks into an empty report cache, then a serving model cache
// warmed from that report cache, as a freshly started cmd/serve would be.
func setupOnce(dir string, tr *tracer) (*env, error) {
	po := harness.PrepareOptions{Seed: modelSeed, Quick: true, CacheDir: dir}
	root := tr.start("setup", nil, 1)
	defer root.end()
	e := &env{}
	epochs := dnn.EpochsRun()

	t0 := time.Now()
	sp := tr.start("genesis.PrepareAll", root, 1)
	prepped, err := harness.PrepareAll(po)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	prepare := time.Since(t0)
	e.trainEpochs = dnn.EpochsRun() - epochs

	t1 := time.Now()
	sp = tr.start("serve.ModelCache.Model", root, 1)
	e.cache = serve.NewModelCache(po)
	for _, net := range harness.Networks() {
		if _, err := e.cache.Model(net); err != nil {
			sp.end()
			return nil, fmt.Errorf("set-up: server warm-up: %w", err)
		}
	}
	sp.end()
	warmup := time.Since(t1)
	if n := dnn.EpochsRun() - epochs - e.trainEpochs; n != 0 {
		return nil, fmt.Errorf("set-up: server warm-up trained %d epochs, want 0 (report cache missed)", n)
	}

	e.prepped = prepped
	e.models = make(map[string]fleet.Model, len(prepped))
	for _, p := range prepped {
		e.models[p.Net] = fleet.Model{Net: p.Net, QM: p.Model, Input: p.QuantInput()}
	}
	e.setupS, e.prepareS, e.warmupS = time.Since(t0).Seconds(), prepare.Seconds(), warmup.Seconds()
	return e, nil
}

// setup runs the cold set-up reps times, each into its own empty cache
// directory under workDir and each followed by reference-kernel samples,
// and keeps the last one's environment with every rep's time in reference
// seconds. The set-ups run back to back and each is long next to its
// samples, so all of them are converted by the median of all the samples.
func setup(workDir string, reps int, ref *refClock) (*env, error) {
	var last *env
	var wall []float64
	n0 := len(ref.samples)
	for i := 0; i < reps; i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		e, err := setupOnce(dir, nil)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		wall = append(wall, e.setupS)
		ref.sampleFor(refShare(e.setupS))
		last = e
	}
	last.setupRefS = scale(wall, refUnit.Seconds()/median(ref.samples[n0:]))
	return last, nil
}
