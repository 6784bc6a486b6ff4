// Command paper regenerates the paper's evaluation: every table and figure
// plus the §9.1 headline claims, printed as text tables (or CSV).
//
// Usage:
//
//	paper -all                 # everything (full GENESIS budgets; slow)
//	paper -all -quick          # everything with small budgets (~a minute)
//	paper -fig 9 -quick        # just Fig. 9
//	paper -table 2 -quick      # just Table 2
//	paper -claims -quick       # just the headline ratios
//	paper -csv ...             # CSV output
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dnn"
	"repro/internal/harness"
	"repro/internal/prof"
)

// profiler serves the -cpuprofile/-memprofile flags; fail() must flush it
// because os.Exit skips deferred calls.
var profiler = prof.RegisterFlags()

func main() {
	var (
		fig    = flag.Int("fig", 0, "regenerate one figure (1,2,4,5,6,9,10,11,12)")
		table  = flag.Int("table", 0, "regenerate one table (1,2)")
		claims = flag.Bool("claims", false, "print the headline-claims summary")
		all    = flag.Bool("all", false, "regenerate everything")
		quick  = flag.Bool("quick", false, "small training budgets")
		csv    = flag.Bool("csv", false, "CSV output")
		outDir = flag.String("out", "", "also write each table as CSV into this directory")
		seed   = flag.Uint64("seed", 1, "rng seed")
		cache  = flag.String("cache", "", "report/model cache directory (warm runs skip training)")
	)
	flag.Parse()
	if err := profiler.Start(); err != nil {
		fail(err)
	}
	defer profiler.Stop()
	if !*all && *fig == 0 && *table == 0 && !*claims {
		flag.Usage()
		os.Exit(2)
	}

	emit := func(tabs ...*harness.Table) {
		for _, t := range tabs {
			if t == nil {
				continue
			}
			if *csv {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t.Render())
			}
			if *outDir != "" {
				if err := writeCSV(*outDir, t); err != nil {
					fail(err)
				}
			}
		}
	}

	// Figures 1, 2, 6 and Table 1 need no trained models.
	if *all || *fig == 1 {
		emit(harness.Fig1(20))
	}
	if *all || *fig == 2 {
		emit(harness.Fig2(20))
	}
	if *all || *table == 1 {
		emit(harness.Table1())
	}
	if *all || *fig == 6 {
		emit(harness.Fig6(1000, 55))
	}

	needModels := *all || *claims || *table == 2 ||
		*fig == 4 || *fig == 5 || *fig == 9 || *fig == 10 || *fig == 11 || *fig == 12
	if !needModels {
		return
	}

	fmt.Fprintf(os.Stderr, "preparing models with GENESIS (quick=%v cache=%q)...\n", *quick, *cache)
	prepared, err := harness.PrepareAll(harness.PrepareOptions{Seed: *seed, Quick: *quick, CacheDir: *cache})
	if err != nil {
		fail(err)
	}
	if *cache != "" {
		for _, p := range prepared {
			state := "miss"
			if p.CacheHit {
				state = "hit"
			}
			fmt.Fprintf(os.Stderr, "genesis report cache %s for %s\n", state, p.Net)
		}
	}
	fmt.Fprintf(os.Stderr, "training epochs run: %d\n", dnn.EpochsRun())
	if *all || *table == 2 {
		emit(harness.Table2(prepared))
	}
	if *all || *fig == 4 {
		for _, p := range prepared {
			emit(harness.Fig4(p))
		}
	}
	if *all || *fig == 5 {
		for _, p := range prepared {
			emit(harness.Fig5(p))
		}
	}

	needEval := *all || *claims || *fig == 9 || *fig == 10 || *fig == 11 || *fig == 12
	if !needEval {
		return
	}
	fmt.Fprintln(os.Stderr, "measuring all runtimes on all power systems...")
	ev, err := harness.RunAll(prepared)
	if err != nil {
		fail(err)
	}
	if *all || *fig == 9 {
		emit(harness.Fig9(ev))
		emit(harness.Fig9Layers(ev))
	}
	if *all || *fig == 10 {
		emit(harness.Fig10(ev))
	}
	if *all || *fig == 11 {
		emit(harness.Fig11(ev))
	}
	if *all || *fig == 12 {
		emit(harness.Fig12(ev))
	}
	if *all || *claims {
		emit(harness.Claims(ev))
		for _, p := range prepared {
			tab, err := harness.Ablation(p)
			if err != nil {
				fail(err)
			}
			emit(tab)
			ext, err := harness.Extensions(p)
			if err != nil {
				fail(err)
			}
			emit(ext)
			svmTab, err := harness.SVMComparison(p, *seed)
			if err != nil {
				fail(err)
			}
			emit(svmTab)
		}
	}
}

// writeCSV stores a table as <dir>/<slug>.csv.
func writeCSV(dir string, t *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		case r == ' ', r == '(', r == ')', r == ':':
			return '-'
		default:
			return -1
		}
	}, t.Title)
	slug = strings.Trim(strings.ReplaceAll(slug, "--", "-"), "-")
	return os.WriteFile(filepath.Join(dir, slug+".csv"), []byte(t.CSV()), 0o644)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	profiler.Stop()
	os.Exit(1)
}
