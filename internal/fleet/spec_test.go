package fleet

import (
	"context"
	"strings"
	"testing"

	"repro/internal/energy"
)

// TestFleetSpecHashShardNormalization is the dedup regression for the
// Shards default: a spec that leaves Shards at zero and one that spells
// out DefaultShards run the identical campaign, so they must share a
// content address — otherwise the serve front-end re-simulates whole
// fleets for a spelling difference. Same for an over-count clamped down
// to the device count.
func TestFleetSpecHashShardNormalization(t *testing.T) {
	zero := testSpec(100)
	zero.Shards = 0
	explicit := testSpec(100)
	explicit.Shards = DefaultShards
	if zero.Hash() != explicit.Hash() {
		t.Fatal("Shards:0 and Shards:DefaultShards run the same campaign but hash differently")
	}

	// Over-counts clamp to Devices: Shards:10 on a 10-device fleet is the
	// same grouping as Shards:500.
	small := testSpec(10)
	small.Shards = 500
	clamped := testSpec(10)
	clamped.Shards = 10
	if small.Hash() != clamped.Hash() {
		t.Fatal("over-count shards and the clamped count hash differently")
	}

	// Distinct effective shard counts still fix different aggregate
	// groupings and must keep distinct addresses.
	other := testSpec(100)
	other.Shards = 32
	if zero.Hash() == other.Hash() {
		t.Fatal("different effective shard counts hash identically")
	}
}

// TestFleetRuntimeByNameErrors pins the parse diagnostics: a malformed
// parameter on a recognized prefix must say what is wrong with it, not
// claim the whole runtime is unknown.
func TestFleetRuntimeByNameErrors(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"tile-0", `runtime "tile-0": tile size must be positive, got 0`},
		{"tile--4", `runtime "tile--4": tile size must be positive, got -4`},
		{"tile-x", `runtime "tile-x": tile size "x" is not a number`},
		{"ckpt-0", `runtime "ckpt-0": checkpoint interval must be positive, got 0`},
		{"ckpt-x", `runtime "ckpt-x": checkpoint interval "x" is not a number`},
		{"alpaca", `unknown runtime "alpaca"`},
		{"", `unknown runtime ""`},
	}
	for _, tc := range cases {
		_, err := RuntimeByName(tc.name)
		if err == nil {
			t.Errorf("RuntimeByName(%q) did not error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RuntimeByName(%q) = %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetDeviceCrossProduct pins the assignment order: device i cycles
// the Models x Runtimes x Powers cross product with models fastest, so
// any index's assignment is readable off the spec by hand.
func TestFleetDeviceCrossProduct(t *testing.T) {
	spec := Spec{
		Devices:  36,
		Seed:     7,
		Models:   []string{"m0", "m1"},
		Runtimes: []string{"base", "sonic", "tails"},
		Powers: []PowerClass{
			{Name: "p0", SystemSpec: energy.SystemSpec{Kind: "cont"}},
			{Name: "p1", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
		},
	}
	combos := len(spec.Models) * len(spec.Runtimes) * len(spec.Powers)
	seen := make(map[[3]string]int)
	for i := 0; i < combos; i++ {
		d := spec.Device(i)
		// Models fastest, then runtimes, then powers.
		wantM := spec.Models[i%2]
		wantR := spec.Runtimes[(i/2)%3]
		wantP := spec.Powers[(i/6)%2]
		if d.Model != wantM || d.Runtime != wantR || d.Power.Name != wantP.Name {
			t.Fatalf("device %d = (%s, %s, %s), want (%s, %s, %s)",
				i, d.Model, d.Runtime, d.Power.Name, wantM, wantR, wantP.Name)
		}
		seen[[3]string{d.Model, d.Runtime, d.Power.Name}]++
	}
	if len(seen) != combos {
		t.Fatalf("first %d devices cover %d of %d combinations", combos, len(seen), combos)
	}
	// The second cycle repeats assignments but never harvest seeds.
	for i := 0; i < combos; i++ {
		d, d2 := spec.Device(i), spec.Device(i+combos)
		if d.Model != d2.Model || d.Runtime != d2.Runtime || d.Power.Name != d2.Power.Name {
			t.Fatalf("cross product does not cycle at device %d", i+combos)
		}
		if d.HarvestSeed == d2.HarvestSeed {
			t.Fatalf("devices %d and %d share a harvest seed across cycles", i, i+combos)
		}
	}
}

// TestFleetDeviceSeedGolden is the seed-derivation regression vector:
// campaign results are reproducible across releases only if the
// SplitMix64 derivation never drifts, so these exact values are part of
// the spec's compatibility surface.
func TestFleetDeviceSeedGolden(t *testing.T) {
	golden := []struct {
		seed uint64
		i    int
		want uint64
	}{
		{1, 0, 0x910a2dec89025cc1},
		{1, 1, 0xbeeb8da1658eec67},
		{1, 2, 0xf893a2eefb32555e},
		{1, 3, 0x71c18690ee42c90b},
		{1, 1023, 0x9d61a03a3cfc0647},
		{42, 0, 0xbdd732262feb6e95},
		{42, 7, 0xccf635ee9e9e2fa4},
		{0xdeadbeef, 0, 0x4adfb90f68c9eb9b},
		{0xdeadbeef, 999999, 0xee3bdab0a2b2ec01},
	}
	for _, g := range golden {
		if got := deviceSeed(g.seed, g.i); got != g.want {
			t.Errorf("deviceSeed(%#x, %d) = %#x, want %#x (derivation drifted: stored campaign hashes no longer reproduce)",
				g.seed, g.i, got, g.want)
		}
	}
	spec := Spec{
		Devices:  4,
		Seed:     1,
		Models:   []string{"m"},
		Runtimes: []string{"base"},
		Powers:   []PowerClass{{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}}},
	}
	if got := spec.Device(0).HarvestSeed; got != golden[0].want {
		t.Errorf("Device(0).HarvestSeed = %#x, want %#x", got, golden[0].want)
	}
}

// TestFleetSpecRejectsUnderflowingHarvester: a stochastic class whose
// harvester can draw 0 W (sigma 38.5 underflows the lognormal factor)
// must fail validation, so Run returns an error instead of panicking in
// the per-device dead-time replay, which runs outside the simulation's
// panic guard.
func TestFleetSpecRejectsUnderflowingHarvester(t *testing.T) {
	spec := Spec{Devices: 64, Seed: 1, Models: []string{"tiny"}, Runtimes: []string{"sonic"},
		Powers: []PowerClass{{Name: "stoch-wild",
			SystemSpec: energy.SystemSpec{Kind: "stoch", CapFarads: 2e-5, Sigma: 38.5}}}}
	models := testModels(1)
	if err := spec.Validate(models); err == nil {
		t.Fatal("spec with a 0 W harvester draw passed validation")
	}
	if _, err := Run(context.Background(), spec, models, 2); err == nil {
		t.Fatal("Run accepted a spec with a 0 W harvester draw")
	}
}
