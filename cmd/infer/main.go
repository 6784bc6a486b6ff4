// Command infer deploys a quantized model onto the simulated device and
// runs inference under a chosen runtime and power system, reporting the
// classification, timing, energy, and reboot statistics.
//
// Usage:
//
//	infer -model har.qmodel -runtime sonic -power 100uF -n 5
//
// If -model is omitted, a model is prepared on the fly with a quick
// GENESIS run for -net.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/trace"
)

func main() {
	var (
		modelPath = flag.String("model", "", "quantized model file (from cmd/genesis)")
		net       = flag.String("net", "har", "network/dataset if no -model given")
		rtName    = flag.String("runtime", "sonic", "base, tile-N, sonic, tails, ckpt-N")
		pwName    = flag.String("power", "100uF",
			"cont, 50mF, 1mF, 100uF, stoch-100uF, stoch-1mF, solar-100uF")
		n           = flag.Int("n", 5, "number of test samples to classify")
		seed        = flag.Uint64("seed", 2, "dataset seed for test samples")
		harvestSeed = flag.Uint64("harvest-seed", 1, "harvester RNG seed for the stochastic power systems")
		tracePath   = flag.String("trace", "", "write an execution trace here (.csv, else Chrome/Perfetto JSON)")
	)
	flag.Parse()

	if *tracePath != "" {
		// Fail on an unwritable path now, not after the simulation.
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		f.Close()
	}

	// Resolve names before any expensive model preparation: a typo in
	// -runtime or -power should fail in milliseconds with the parse
	// diagnostic, not after a GENESIS run.
	rt, err := fleet.RuntimeByName(*rtName)
	if err != nil {
		fail(err)
	}
	pw := powerByName(*pwName, *harvestSeed)
	if pw == nil {
		fail(fmt.Errorf("unknown power system %q", *pwName))
	}

	var qm *dnn.QuantModel
	if *modelPath != "" {
		var lerr error
		qm, lerr = dnn.LoadQuantFile(*modelPath)
		if lerr != nil {
			fail(lerr)
		}
		*net = qm.Name
	} else {
		fmt.Printf("no -model given; preparing %s with a quick GENESIS run...\n", *net)
		p, perr := harness.Prepare(*net, harness.PrepareOptions{Seed: 1, Quick: true})
		if perr != nil {
			fail(perr)
		}
		qm = p.Model
	}

	ds, err := dnn.DatasetFor(qm.Name, *seed, 1, *n)
	if err != nil {
		fail(err)
	}
	dev := mcu.New(pw())
	var buf *trace.Buffer
	if *tracePath != "" {
		buf = trace.NewBuffer(0)
		dev.SetTracer(buf)
	}
	img, err := core.Deploy(dev, qm)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s, model %s (%d MACs, %d weight bytes), runtime %s, power %s\n",
		dev, qm.Name, qm.MACs(), qm.WeightWords()*2, rt.Name(), *pwName)

	names := dataset.ClassNames(dsName(qm.Name))
	correct := 0
	for i, ex := range ds.Test {
		before := *dev.Stats()
		logits, err := rt.Infer(img, qm.QuantizeInput(ex.X))
		if err != nil {
			fmt.Printf("sample %d: %v\n", i, err)
			// Dump the trace anyway: failed runs are the interesting ones.
			dumpTrace(buf, *tracePath, dev)
			os.Exit(2)
		}
		st := dev.Stats()
		pred := core.Argmax(logits)
		mark := " "
		if pred == ex.Label {
			correct++
			mark = "*"
		}
		fmt.Printf("sample %d: predicted %-10s truth %-10s %s  (%.1f ms live, %d reboots, %.2f mJ)\n",
			i, className(names, pred), className(names, ex.Label), mark,
			(st.LiveSeconds(dev.Cost.ClockHz)-before.LiveSeconds(dev.Cost.ClockHz))*1e3,
			st.Reboots-before.Reboots,
			(st.EnergyNJ()-before.EnergyNJ())*1e-6)
	}
	tot := dev.Stats()
	fmt.Printf("accuracy %d/%d; totals: %.3f s live, %.3f s dead, %d reboots, %.2f mJ\n",
		correct, len(ds.Test), tot.LiveSeconds(dev.Cost.ClockHz), tot.DeadSeconds,
		tot.Reboots, tot.EnergyMJ())

	dumpTrace(buf, *tracePath, dev)
}

// dumpTrace exports the buffered trace and prints the wasted-work
// timeline; no-op when tracing is off.
func dumpTrace(buf *trace.Buffer, path string, dev *mcu.Device) {
	if buf == nil {
		return
	}
	dev.FlushTrace()
	if err := writeTrace(path, buf, dev); err != nil {
		fail(err)
	}
	fmt.Printf("\ntrace: %d events written to %s\n", buf.Len(), path)
	if err := trace.WriteTimeline(os.Stdout, buf.Analysis()); err != nil {
		fail(err)
	}
}

// writeTrace exports the trace by file extension: .csv rows, otherwise
// Chrome trace-event JSON for Perfetto (with a voltage counter track when
// the power system is capacitor-buffered).
func writeTrace(path string, buf *trace.Buffer, dev *mcu.Device) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.WriteCSV(f, buf.Events(), dev.Cost.ClockHz)
	}
	opts := trace.ChromeOptions{ClockHz: dev.Cost.ClockHz}
	if ip, ok := dev.Power.(*energy.Intermittent); ok {
		c := ip.Cap
		opts.Capacitor = &c
	}
	return trace.WriteChrome(f, buf.Events(), opts)
}

func powerByName(name string, harvestSeed uint64) func() energy.System {
	for _, p := range append(harness.Powers(), harness.StochasticPowers(harvestSeed)...) {
		if p.Name == name {
			return p.Make
		}
	}
	return nil
}

// dsName maps model names to dataset names.
func dsName(model string) string {
	if model == "mnist" {
		return "digits"
	}
	return model
}

func className(names []string, c int) string {
	if c >= 0 && c < len(names) {
		return names[c]
	}
	return fmt.Sprintf("#%d", c)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "infer:", err)
	os.Exit(1)
}
