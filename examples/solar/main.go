// Solar deployment with an energy trace. A batteryless sensor runs HAR
// inference from a small solar array whose output varies wildly with the
// time of day. The device's tracer records the capacitor's charge level
// on every charge-cycle event while SONIC infers through dozens of power
// failures — the sawtooth of the paper's Fig. 6 — and the example renders
// the first inference's levels as an ASCII strip and verifies that the
// classifications are identical to a bench run on continuous power. The
// analysis-only tracer keeps the fused kernels engaged, so the traced run
// is the same fast run an untraced deployment takes.
//
//	go run ./examples/solar
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/trace"
)

func main() {
	fmt.Println("preparing the HAR classifier with GENESIS...")
	model, err := repro.TrainAndCompress("har", repro.QuickOptions("har"))
	if err != nil {
		log.Fatal(err)
	}
	ds, err := repro.NewDataset("har", 2026, 1, 8)
	if err != nil {
		log.Fatal(err)
	}
	names := repro.ClassNames("har")

	// Continuous-power reference.
	bench := repro.NewDevice(repro.ContinuousPower())
	benchImg, err := repro.Deploy(bench, model)
	if err != nil {
		log.Fatal(err)
	}

	// Solar deployment: a 5 mW-peak array on the 100 uF bank, traced so we
	// can plot the capacitor's charge level. Every event carries the level
	// the device samples from the capacitor.
	power := energy.NewIntermittent(energy.Cap100uF, energy.NewSolarHarvester(5e-3, 7))
	dev := mcu.New(power)
	buf := trace.NewAnalysisBuffer(1 << 13)
	dev.SetTracer(buf)
	img, err := repro.Deploy(dev, model)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nclassifying the morning's activity windows on solar power:")
	for i, ex := range ds.Test {
		want, err := repro.SONIC().Infer(benchImg, model.QuantizeInput(ex.X))
		if err != nil {
			log.Fatal(err)
		}
		got, err := repro.SONIC().Infer(img, model.QuantizeInput(ex.X))
		if err != nil {
			log.Fatal(err)
		}
		if repro.Argmax(got) != repro.Argmax(want) {
			log.Fatalf("window %d: solar result diverged from bench!", i)
		}
		fmt.Printf("  window %d: %s\n", i, names[repro.Argmax(got)])
	}
	st := dev.Stats()
	fmt.Printf("\n%d power failures, %.2f mJ consumed, %.2f s spent recharging\n",
		st.Reboots, st.EnergyMJ(), st.DeadSeconds)
	fmt.Println("all solar-powered results identical to the continuous-power bench run")
	var ops int64
	for _, n := range st.OpCount {
		ops += n
	}
	fmt.Printf("%d of %d operations ran fused under the tracer\n", dev.FusedOps(), ops)
	if buf.Drops() > 0 {
		log.Fatalf("trace ring overflowed (%d events dropped)", buf.Drops())
	}

	// The first inference's levels: events from the first run-begin up to
	// the second.
	var levels []float64
	for _, e := range buf.Events() {
		if e.Kind == mcu.TraceRunBegin && len(levels) > 0 {
			break
		}
		levels = append(levels, e.LevelNJ)
	}
	full := power.BufferEnergy()
	fmt.Printf("\ncapacitor charge over the first inference (%d samples, full = %.1f uJ):\n",
		len(levels), full/1e3)
	const width = 64
	step := max(1, (len(levels)+width-1)/width)
	var b strings.Builder
	for row := 4; row >= 0; row-- {
		lo := float64(row) / 5 * full
		b.WriteString("  |")
		for i := 0; i < width && i*step < len(levels); i++ {
			if levels[i*step] >= lo {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "> events\n")
	fmt.Print(b.String())
}
