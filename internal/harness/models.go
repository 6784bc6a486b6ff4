package harness

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/genesis"
)

// Prepared bundles everything the evaluation needs about one network: the
// GENESIS sweep report, the chosen deployable model, and a test input.
type Prepared struct {
	Net    string
	Report *genesis.Report
	Model  *dnn.QuantModel
	Input  []float64 // one representative test sample
	Label  int
	// CacheHit is true when the report came from the content-addressed
	// report cache, i.e. this Prepare ran zero training epochs.
	CacheHit bool
}

// Networks lists the three evaluation networks in paper order.
func Networks() []string { return []string{"mnist", "har", "okg"} }

// QuantInput returns the prepared test sample quantized for deployment —
// the form device-level consumers (measurement cells, fleet campaigns)
// feed to Runtime.Infer.
func (p *Prepared) QuantInput() []fixed.Q15 {
	return p.Model.QuantizeInput(p.Input)
}

// PrepareOptions sizes the GENESIS runs behind the evaluation.
type PrepareOptions struct {
	Seed     uint64
	Quick    bool   // small training budgets for tests
	CacheDir string // if set, reports and chosen models are cached here

	// Workers bounds the per-config and per-example fan-out inside each
	// sweep (0 = GOMAXPROCS). It does not affect results — see
	// TestGenesisParallelDeterministic.
	Workers int
}

// genesisOptions builds the sweep options for a network.
func genesisOptions(net string, po PrepareOptions) genesis.Options {
	o := genesis.DefaultOptions(net)
	o.Seed = po.Seed
	o.Workers = po.Workers
	if po.Quick {
		o.TrainSamples, o.TestSamples = 360, 90
		o.Epochs, o.FineTuneEpochs = 2, 1
		o.MaxSamplesPerEpoch = 240
		o.PruneLevels = []float64{0.75, 0.9}
		o.RankFracs = []float64{0.5}
	}
	return o
}

// Prepare runs GENESIS for one network — or loads the report from the
// content-addressed cache, skipping training entirely — and returns the
// chosen deployable model.
func Prepare(net string, po PrepareOptions) (*Prepared, error) {
	opts := genesisOptions(net, po)
	var rep *genesis.Report
	cacheHit := false
	if po.CacheDir != "" {
		if r := loadReportCache(po.CacheDir, opts); r != nil {
			rep, cacheHit = r, true
		}
	}
	if rep == nil {
		var err error
		rep, err = genesis.Run(opts)
		if err != nil {
			return nil, err
		}
		if po.CacheDir != "" {
			if err := saveReportCache(po.CacheDir, opts, rep); err != nil {
				return nil, fmt.Errorf("harness: caching %s report: %w", net, err)
			}
		}
	}
	chosen := rep.ChosenResult()
	if chosen == nil || chosen.Model == nil {
		return nil, fmt.Errorf("harness: GENESIS found no feasible configuration for %s", net)
	}
	ds, err := dnn.DatasetFor(net, opts.Seed, 4, 4)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Net: net, Report: rep, Model: chosen.Model,
		Input: ds.Test[0].X, Label: ds.Test[0].Label, CacheHit: cacheHit}
	if po.CacheDir != "" {
		if err := chosen.Model.SaveFile(cachePath(po.CacheDir, net)); err != nil {
			return nil, fmt.Errorf("harness: caching %s model: %w", net, err)
		}
	}
	return p, nil
}

// PrepareAll prepares every evaluation network, fanning the three sweeps
// out across goroutines (each sweep further parallelizes over its configs).
// Results are returned in Networks() order regardless of completion order.
func PrepareAll(po PrepareOptions) ([]*Prepared, error) {
	nets := Networks()
	out := make([]*Prepared, len(nets))
	errs := make([]error, len(nets))
	var wg sync.WaitGroup
	for i, net := range nets {
		wg.Add(1)
		go func(i int, net string) {
			defer wg.Done()
			out[i], errs[i] = Prepare(net, po)
		}(i, net)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: preparing %s: %w", nets[i], err)
		}
	}
	return out, nil
}

func cachePath(dir, net string) string {
	return filepath.Join(dir, net+".qmodel")
}
