package fleet

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/intermittest"
)

// testModels returns a registry holding the tiny model — every kernel
// class the runtimes implement, small enough to sweep thousands of
// devices in seconds.
func testModels(seed uint64) map[string]Model {
	qm, x := intermittest.TinyModel(seed)
	return map[string]Model{"tiny": {Net: "tiny", QM: qm, Input: qm.QuantizeInput(x)}}
}

// testSpec is a campaign mixing deterministic and stochastic harvesters,
// completing and non-completing runtimes.
func testSpec(devices int) Spec {
	return Spec{
		Devices:  devices,
		Seed:     1,
		Models:   []string{"tiny"},
		Runtimes: []string{"base", "tile-32", "sonic", "tails"},
		Powers: []PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "stoch-100uF", SystemSpec: energy.SystemSpec{Kind: "stoch", CapFarads: 100e-6}},
			{Name: "solar-100uF", SystemSpec: energy.SystemSpec{Kind: "solar", CapFarads: 100e-6, Watts: 5e-3}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
}

// fingerprint reduces a Result to comparable values: every counter, the
// exact sketch centroid lists, and the exact histogram bins.
type fingerprint struct {
	Summary   Summary
	IMpJ      []Centroid
	FirstSec  []Centroid
	Reboots   []int64
	Wasted    []int64
	Done      int
	EnergyPJ  int64
	IMpJCount int64
}

func fingerprintOf(r *Result) fingerprint {
	return fingerprint{
		Summary:   r.Agg.Summary(),
		IMpJ:      r.Agg.IMpJ.Centroids(),
		FirstSec:  r.Agg.FirstSec.Centroids(),
		Reboots:   r.Agg.RebootHist.Counts(),
		Wasted:    r.Agg.WastedHist.Counts(),
		Done:      r.Done,
		EnergyPJ:  r.Agg.EnergyPJ,
		IMpJCount: r.Agg.IMpJ.Count(),
	}
}

// TestFleetDeterministicAcrossWorkers is the campaign determinism oracle:
// the same spec swept with 1, 2, 4, and GOMAXPROCS workers — and once
// with a concurrent snapshot reader hammering the live campaign — must
// produce bit-identical aggregates, down to sketch centroids and
// histogram bins. CI greps for these subtest PASS lines.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	models := testModels(1)
	spec := testSpec(600)
	base, err := Run(context.Background(), spec, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Agg.Devices != 600 || base.Done != 600 {
		t.Fatalf("baseline swept %d/%d devices, want 600", base.Agg.Devices, base.Done)
	}
	if base.Agg.Completed == 0 || base.Agg.Reboots == 0 {
		t.Fatalf("degenerate baseline: completed=%d reboots=%d", base.Agg.Completed, base.Agg.Reboots)
	}
	want := fingerprintOf(base)

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		t.Run(subtestName("workers", workers), func(t *testing.T) {
			r, err := Run(context.Background(), spec, models, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintOf(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d aggregates differ from workers=1 baseline:\ngot  %+v\nwant %+v", workers, got, want)
			}
		})
	}

	// Concurrent snapshots must observe the campaign without perturbing it.
	t.Run("workers-snapshotted", func(t *testing.T) {
		c, err := NewCampaign(spec, models)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		snapDone := make(chan error, 1)
		go func() {
			defer close(snapDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Snapshot(); err != nil {
					snapDone <- err
					return
				}
			}
		}()
		r, err := c.Run(context.Background(), 4)
		close(stop)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-snapDone; err != nil {
			t.Fatal(err)
		}
		if got := fingerprintOf(r); !reflect.DeepEqual(got, want) {
			t.Fatal("snapshotting a live campaign changed its final aggregates")
		}
	})
}

func subtestName(prefix string, n int) string {
	names := map[int]string{1: "1", 2: "2", 4: "4"}
	if s, ok := names[n]; ok {
		return prefix + "-" + s
	}
	return prefix + "-max"
}

// TestFleetMemoryBound is the O(workers)-memory acceptance test: a
// 10,000-device campaign must retain no per-device state — growing the
// fleet 5x may not grow the retained aggregates — and the streaming
// structures must stay at their fixed sizes.
func TestFleetMemoryBound(t *testing.T) {
	models := testModels(1)
	retainedAfter := func(devices int) (*Result, uint64) {
		r, err := Run(context.Background(), testSpec(devices), models, 2)
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return r, ms.HeapAlloc
	}
	rSmall, small := retainedAfter(2000)
	rLarge, large := retainedAfter(10000)
	if rLarge.Agg.Devices != 10000 {
		t.Fatalf("swept %d devices, want 10000", rLarge.Agg.Devices)
	}
	// Both results (and their campaigns' shard aggregates) are live at
	// both measurements, so fleet-size-independent memory means the two
	// readings differ only by noise. A per-device leak as small as 64
	// bytes would add ~0.5 MB here.
	const slackBytes = 1 << 18 // 256 KiB of allocator noise
	if large > small+slackBytes {
		t.Fatalf("retained heap grew %d bytes going from 2k to 10k devices; aggregates must be O(workers), not O(fleet)",
			large-small)
	}
	for name, s := range map[string]*Sketch{"IMpJ": rLarge.Agg.IMpJ, "FirstSec": rLarge.Agg.FirstSec} {
		if n := len(s.Centroids()); n > 8*DefaultCompression {
			t.Errorf("%s sketch holds %d centroids, want O(compression)", name, n)
		}
	}
	if rSmall.Agg.Completed == 0 || rLarge.Agg.Completed == 0 {
		t.Fatal("degenerate campaign: nothing completed")
	}
	_ = rSmall
}

func TestFleetCancellation(t *testing.T) {
	models := testModels(1)
	spec := testSpec(50000)
	ctx, cancel := context.WithCancel(context.Background())
	c, err := NewCampaign(spec, models)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if done, _ := c.Progress(); done > 100 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = c.Run(ctx, 2)
	if err != context.Canceled {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if done, total := c.Progress(); done >= total {
		t.Fatalf("campaign ran to completion (%d/%d) despite cancellation", done, total)
	}
	cancel()
}

// TestFleetDevicePurity pins the seed-indexed assignment: device derivation
// is a pure function of (spec, index) with well-separated harvest seeds.
func TestFleetDevicePurity(t *testing.T) {
	spec := testSpec(1000)
	seen := make(map[uint64]int)
	for i := 0; i < spec.Devices; i++ {
		a, b := spec.Device(i), spec.Device(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("device %d derivation is not pure", i)
		}
		if prev, dup := seen[a.HarvestSeed]; dup {
			t.Fatalf("devices %d and %d share harvest seed %#x", prev, i, a.HarvestSeed)
		}
		seen[a.HarvestSeed] = i
	}
	// The cross product cycles: with 1 model, 4 runtimes, 4 powers the
	// first 16 devices cover every (runtime, power) pair.
	pairs := make(map[[2]string]bool)
	for i := 0; i < 16; i++ {
		d := spec.Device(i)
		pairs[[2]string{d.Runtime, d.Power.Name}] = true
	}
	if len(pairs) != 16 {
		t.Fatalf("first 16 devices cover %d of 16 runtime x power pairs", len(pairs))
	}
}

func TestFleetSpecHashIdentity(t *testing.T) {
	a, b := testSpec(100), testSpec(100)
	if a.Hash() != b.Hash() {
		t.Fatal("identical specs hash differently")
	}
	b.Seed++
	if a.Hash() == b.Hash() {
		t.Fatal("different seeds hash identically")
	}
	c := testSpec(100)
	c.Shards = 32
	if a.Hash() == c.Hash() {
		t.Fatal("different shard counts must hash differently (sharding fixes aggregate bits)")
	}
}

func TestFleetSpecValidation(t *testing.T) {
	models := testModels(1)
	for name, mutate := range map[string]func(*Spec){
		"no-devices":      func(s *Spec) { s.Devices = 0 },
		"unknown-model":   func(s *Spec) { s.Models = []string{"resnet"} },
		"no-models":       func(s *Spec) { s.Models = nil },
		"unknown-runtime": func(s *Spec) { s.Runtimes = []string{"quantum"} },
		"no-powers":       func(s *Spec) { s.Powers = nil },
		"bad-power":       func(s *Spec) { s.Powers[0].CapFarads = -1 },
		// One combination past the bound: 4 runtimes x 1025 power classes.
		"too-many-combinations": func(s *Spec) { s.Powers = repeatPower(s.Powers[0], MaxCombinations/4+1) },
		"too-many-shards":       func(s *Spec) { s.Shards = MaxShards + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			s := testSpec(10)
			mutate(&s)
			if err := s.Validate(models); err == nil {
				t.Fatal("invalid spec passed validation")
			}
		})
	}
	s := testSpec(10)
	if err := s.Validate(models); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	s.Powers = repeatPower(s.Powers[0], MaxCombinations/4)
	if err := s.Validate(models); err != nil {
		t.Fatalf("spec at exactly MaxCombinations rejected: %v", err)
	}
	s.Shards = MaxShards
	if err := s.Validate(models); err != nil {
		t.Fatalf("spec at exactly MaxShards rejected: %v", err)
	}
}

func repeatPower(p PowerClass, n int) []PowerClass {
	out := make([]PowerClass, n)
	for i := range out {
		out[i] = p
	}
	return out
}

func TestFleetRuntimeByName(t *testing.T) {
	for _, name := range []string{"base", "tile-8", "tile-32", "tile-128", "sonic", "tails", "ckpt-8"} {
		rt, err := RuntimeByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rt.Name() != name {
			t.Fatalf("RuntimeByName(%q).Name() = %q", name, rt.Name())
		}
	}
	for _, name := range []string{"", "tile-", "tile-0", "ckpt-x", "alpaca"} {
		if _, err := RuntimeByName(name); err == nil {
			t.Fatalf("RuntimeByName(%q) did not error", name)
		}
	}
}
