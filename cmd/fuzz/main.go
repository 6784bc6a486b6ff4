// Command fuzz runs the intermittence-correctness campaign: it sweeps
// brown-out placements across a small model's op boundaries under the
// crash-consistent runtimes, differentially checking logits against the
// continuous-power golden run and (with -war) arming the write-after-read
// shadow tracker. Clean runtimes exit 0; any consistency bug prints the
// minimal failing schedule and exits 1.
//
// Usage:
//
//	fuzz                       # deterministic campaign over every runtime
//	fuzz -war -seed 1          # campaign with the WAR detector armed (CI)
//	fuzz -runtime sonic -war -schedule 120,4000   # replay one schedule
//	fuzz -runtime broken -war -schedule 1300 -minimize
//
// The campaign includes two negative controls — the unprotected baseline
// and a deliberately WAR-broken SONIC variant — which must come back
// flagged; a clean negative control means the detector itself regressed
// and also exits 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/intermittest"
	"repro/internal/prof"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// profiler serves the -cpuprofile/-memprofile flags; every exit path must
// flush it because os.Exit skips deferred calls.
var profiler = prof.RegisterFlags()

func main() {
	var (
		rtName   = flag.String("runtime", "all", "all, base, tile-8, tile-32, tile-128, sonic, tails, ckpt-8, broken")
		war      = flag.Bool("war", false, "arm the write-after-read shadow tracker")
		seed     = flag.Uint64("seed", 1, "model seed; also seeds boundary sampling above -limit")
		schedule = flag.String("schedule", "", "comma-separated op gaps: replay this brown-out schedule instead of sweeping")
		minimize = flag.Bool("minimize", false, "with -schedule: shrink a failing schedule before printing it")
		limit    = flag.Int("limit", 0, "max op count for exhaustive sweeps (0 = default)")
		maxB     = flag.Int("max", 0, "boundaries sampled above -limit (0 = default)")
		stride   = flag.Int("snap-stride", 0, "op stride of the golden snapshot train (0 = default)")
		scratch  = flag.Bool("force-scratch", false, "disable snapshot-and-fork: simulate every check from scratch")
	)
	flag.Parse()
	if err := profiler.Start(); err != nil {
		fail(err)
	}

	qm, x := intermittest.TinyModel(*seed)
	opt := intermittest.Options{
		Seed: *seed, CheckWAR: *war,
		ExhaustiveLimit: *limit, MaxBoundaries: *maxB,
		SnapStride: *stride, ForceScratch: *scratch,
	}

	rts := runtimesByName(*rtName)
	if rts == nil {
		fail(fmt.Errorf("unknown runtime %q", *rtName))
	}

	code := 0
	if *schedule != "" {
		code = replay(qm, x, rts, *schedule, opt, *minimize)
	} else {
		code = campaign(qm, x, rts, opt)
	}
	profiler.Stop()
	os.Exit(code)
}

// replay runs one explicit brown-out schedule under each selected runtime.
func replay(qm *dnn.QuantModel, x []float64, rts []core.Runtime, schedule string, opt intermittest.Options, minimize bool) int {
	gaps, err := intermittest.ParseSchedule(schedule)
	if err != nil {
		fail(err)
	}
	failed := false
	for _, rt := range rts {
		c, err := intermittest.NewCheckerOpt(qm, x, rt, opt)
		if err != nil {
			fail(err)
		}
		res := c.Check(gaps)
		fmt.Println(res)
		if res.Failing() {
			failed = true
			if minimize {
				min := c.Minimize(gaps)
				fmt.Printf("  minimal failing schedule: [%s]\n", intermittest.FormatSchedule(min))
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// campaign sweeps brown-out placements under every selected runtime and
// enforces the expected verdicts: protected runtimes must be clean, and
// the negative controls (base, broken) must be flagged.
func campaign(qm *dnn.QuantModel, x []float64, rts []core.Runtime, opt intermittest.Options) int {
	rep, err := intermittest.Campaign(qm, x, rts, opt)
	if err != nil {
		fail(err)
	}
	fmt.Print(rep)

	exit := 0
	for _, r := range rep.Runtimes {
		if negativeControl(r.Runtime) {
			if r.Clean() {
				fmt.Printf("\nFAIL %s: negative control came back clean — the detector regressed\n", r.Runtime)
				exit = 1
			}
			continue
		}
		if r.Clean() {
			continue
		}
		exit = 1
		fmt.Printf("\nFAIL %s: %s\n", r.Runtime, r.Summary())
		if gaps := firstFailing(qm, x, r, opt); gaps != nil {
			fmt.Printf("  reproduce: go run ./cmd/fuzz -runtime %s%s -schedule %s\n",
				r.Runtime, warFlag(opt.CheckWAR), intermittest.FormatSchedule(gaps))
		}
	}
	return exit
}

// firstFailing rebuilds a checker for the dirty runtime and minimizes its
// earliest failing boundary into a concrete schedule.
func firstFailing(qm *dnn.QuantModel, x []float64, r *intermittest.RuntimeReport, opt intermittest.Options) []int {
	b := -1
	if len(r.Mismatches) > 0 {
		b = r.Mismatches[0].Boundary
	}
	if len(r.DNC) > 0 && (b < 0 || r.DNC[0] < b) {
		b = r.DNC[0]
	}
	if len(r.WARBounds) > 0 && (b < 0 || r.WARBounds[0] < b) {
		b = r.WARBounds[0]
	}
	if b < 0 {
		return nil
	}
	c, err := intermittest.NewCheckerOpt(qm, x, runtimeByName(r.Runtime), opt)
	if err != nil {
		return []int{b}
	}
	return c.Minimize([]int{b})
}

func warFlag(on bool) string {
	if on {
		return " -war"
	}
	return ""
}

// negativeControl reports whether the runtime is intentionally unsafe.
func negativeControl(name string) bool { return name == "base" || name == "broken" }

func runtimesByName(name string) []core.Runtime {
	if name == "all" {
		return []core.Runtime{
			baseline.Base{},
			baseline.Tile{TileSize: 8},
			baseline.Tile{TileSize: 32},
			baseline.Tile{TileSize: 128},
			sonic.SONIC{},
			tails.TAILS{},
			checkpoint.Checkpoint{Interval: 8},
			intermittest.Broken{},
		}
	}
	if rt := runtimeByName(name); rt != nil {
		return []core.Runtime{rt}
	}
	return nil
}

// runtimeByName resolves fuzz targets: the fleet vocabulary plus the
// WAR-broken negative control.
func runtimeByName(name string) core.Runtime {
	if name == "broken" {
		return intermittest.Broken{}
	}
	rt, err := fleet.RuntimeByName(name)
	if err != nil {
		return nil
	}
	return rt
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fuzz:", err)
	profiler.Stop()
	os.Exit(1)
}
