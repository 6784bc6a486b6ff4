// Command genesis runs the GENESIS compression sweep (§5) for one network:
// it trains the base network, explores pruning/separation configurations,
// checks feasibility against the FRAM budget, scores each configuration
// with the IMpJ application model, and saves the chosen deployable model.
//
// Usage:
//
//	genesis -net mnist -quick -out mnist.qmodel
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/genesis"
	"repro/internal/harness"
)

func main() {
	var (
		net      = flag.String("net", "har", "network: mnist, har, okg")
		quick    = flag.Bool("quick", false, "small training budgets (fast demo)")
		budget   = flag.Int("budget", 40*1024, "FRAM weight budget in bytes (feasibility)")
		seed     = flag.Uint64("seed", 1, "rng seed")
		out      = flag.String("out", "", "path to save the chosen quantized model")
		csv      = flag.Bool("csv", false, "emit CSV instead of text tables")
		perLayer = flag.Bool("perlayer", false, "greedily refine the chosen config with per-layer moves")
		workers  = flag.Int("workers", 0, "config- and example-evaluation worker bound (0 = GOMAXPROCS, 1 = one goroutine at a time)")
	)
	flag.Parse()

	opts := genesis.DefaultOptions(*net)
	if *quick {
		opts.TrainSamples, opts.TestSamples = 360, 90
		opts.Epochs, opts.FineTuneEpochs = 2, 1
		opts.MaxSamplesPerEpoch = 240
		opts.PruneLevels = []float64{0.75, 0.9}
		opts.RankFracs = []float64{0.5}
	}
	opts.Seed = *seed
	opts.FRAMBudgetBytes = *budget
	opts.Workers = *workers

	fmt.Printf("GENESIS sweep for %s (%d configurations)...\n", *net, len(opts.Configs()))
	var rep *genesis.Report
	var refined *genesis.PerLayerResult
	var err error
	if *perLayer {
		rep, refined, err = genesis.RunPerLayer(opts)
	} else {
		rep, err = genesis.Run(opts)
	}
	if err != nil {
		fail(err)
	}
	p := &harness.Prepared{Net: *net, Report: rep}
	if chosen := rep.ChosenResult(); chosen != nil {
		p.Model = chosen.Model
	}
	for _, tab := range []*harness.Table{harness.Fig4(p), harness.Fig5(p)} {
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.Render())
		}
	}

	chosen := rep.ChosenResult()
	if chosen == nil {
		fail(fmt.Errorf("no feasible configuration under %d-byte budget", *budget))
	}
	fmt.Printf("chosen: %s — accuracy %.1f%%, %d MACs, %d bytes, Einfer %.2f mJ, IMpJ %.2f\n",
		chosen.Config.Name(), chosen.Accuracy*100, chosen.MACs,
		chosen.ParamBytes, chosen.EInferJ*1e3, chosen.IMpJ)
	save := chosen.Model
	if refined != nil {
		fmt.Printf("per-layer refinement: IMpJ %.2f -> %.2f via %v\n",
			chosen.IMpJ, refined.IMpJ, refined.Moves)
		if refined.Model != nil {
			save = refined.Model
		}
	}
	if *out != "" {
		if err := save.SaveFile(*out); err != nil {
			fail(err)
		}
		fmt.Printf("saved deployable model to %s\n", *out)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "genesis:", err)
	os.Exit(1)
}
