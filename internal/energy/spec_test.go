package energy

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestSystemSpecValidate(t *testing.T) {
	valid := []SystemSpec{
		{Kind: "cont"},
		{Kind: "const", CapFarads: 100e-6},
		{Kind: "stoch", CapFarads: 100e-6, Sigma: 0.7},
		{Kind: "solar", CapFarads: 1e-3, Watts: 5e-3},
		{Kind: "trace", CapFarads: 100e-6, Trace: []float64{1e-3, 2e-3}},
		// Just below the int64-picojoule edge (~6.266e7 F).
		{Kind: "const", CapFarads: 6.26e7},
		// Just below the stochastic underflow edge at the default watts.
		{Kind: "stoch", CapFarads: 100e-6, Sigma: 26.7},
		{Kind: "solar", CapFarads: 1e-3, Watts: 1e-300},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
		if s.Kind != "cont" && CapBank(s.CapFarads).UsablePJ() <= 0 {
			t.Errorf("%+v: valid spec has %d usable pJ", s, CapBank(s.CapFarads).UsablePJ())
		}
	}
	invalid := []SystemSpec{
		{},
		{Kind: "fusion"},
		{Kind: "const"},
		{Kind: "const", CapFarads: -1},
		{Kind: "stoch", CapFarads: 100e-6, Watts: -1},
		{Kind: "trace", CapFarads: 100e-6},
		// Usable energy past int64 picojoules: UsablePJ would wrap.
		{Kind: "const", CapFarads: 6.27e7},
		{Kind: "stoch", CapFarads: 1e10},
		{Kind: "trace", CapFarads: 1e10, Trace: []float64{1e-3}},
		// Harvest power that can underflow to 0 W.
		{Kind: "stoch", CapFarads: 2e-5, Sigma: 38.5},
		{Kind: "stoch", CapFarads: 100e-6, Sigma: 26.9},
		{Kind: "stoch", CapFarads: 100e-6, Sigma: -26.9},
		{Kind: "stoch", CapFarads: 100e-6, Watts: 1e-300, Sigma: 10},
		{Kind: "solar", CapFarads: 1e-3, Watts: 1e-323},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v passed validation", s)
		}
	}
}

// TestSystemSpecDeterministicPerSeed pins the fleet contract: equal
// (spec, seed) pairs yield systems with identical consume/recharge
// behavior, and stochastic kinds diverge across seeds.
func TestSystemSpecDeterministicPerSeed(t *testing.T) {
	spec := SystemSpec{Kind: "stoch", CapFarads: 100e-6}
	drain := func(sys System) []float64 {
		var deads []float64
		for i := 0; i < 5; i++ {
			for consume(sys, 100) {
			}
			deads = append(deads, sys.Recharge())
		}
		return deads
	}
	a, err := spec.New(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.New(42)
	if err != nil {
		t.Fatal(err)
	}
	da, db := drain(a), drain(b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same (spec, seed) diverged at recharge %d: %v vs %v", i, da[i], db[i])
		}
	}
	c, err := spec.New(43)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i, d := range drain(c) {
		if d != da[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical stochastic recharge times")
	}
}

// TestSystemSpecKinds checks each kind constructs the documented system
// class with the documented defaults.
func TestSystemSpecKinds(t *testing.T) {
	if sys, err := (SystemSpec{Kind: "cont"}).New(1); err != nil {
		t.Fatal(err)
	} else if _, ok := sys.(Continuous); !ok {
		t.Fatalf("cont built %T", sys)
	}
	sys, err := SystemSpec{Kind: "const", CapFarads: 100e-6}.New(1)
	if err != nil {
		t.Fatal(err)
	}
	im, ok := sys.(*Intermittent)
	if !ok {
		t.Fatalf("const built %T", sys)
	}
	// Zero watts defaults to the paper's RF harvester power (observed
	// harvest is averaged over recharges, so drain once first).
	for consume(im, 100) {
	}
	im.Recharge()
	if got := im.ObservedHarvestW(); got != DefaultRFWatts {
		t.Fatalf("default const harvest = %v, want %v", got, DefaultRFWatts)
	}
	if im.BufferEnergy() <= 0 {
		t.Fatal("const system has no usable buffer")
	}
	if _, err := (SystemSpec{Kind: "trace", CapFarads: 100e-6, Trace: []float64{1e-3}}).New(1); err != nil {
		t.Fatal(err)
	}
}

// TestSystemSpecJSONRoundTrip: the spec is the wire format of the serving
// API, so it must survive JSON unchanged.
func TestSystemSpecJSONRoundTrip(t *testing.T) {
	in := SystemSpec{Kind: "stoch", CapFarads: 100e-6, Watts: 2e-3, Sigma: 0.5}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SystemSpec
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed spec: %+v -> %+v", in, out)
	}
}

// TestStochasticBoundCoversEveryDraw: at the largest sigma Validate
// accepts, the harvester's smallest possible draw, with the normal sample
// at its ziggurat tail bound rn + 53·ln2/rn, is still a positive power,
// and so is every draw of a long seeded run.
func TestStochasticBoundCoversEveryDraw(t *testing.T) {
	lo, hi := 1.0, 40.0 // accepted, rejected
	for range 60 {
		mid := (lo + hi) / 2
		if (SystemSpec{Kind: "stoch", CapFarads: 100e-6, Sigma: mid}).Validate() == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	const rn = 3.442619855899
	tail := rn + 53*math.Ln2/rn
	if p := DefaultRFWatts * math.Exp(-tail*lo-lo*lo/2); !(p > 0) {
		t.Fatalf("sigma %v accepted but its tail draw is %v W", lo, p)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		h := NewStochasticHarvester(DefaultRFWatts, lo, seed)
		for i := range 100_000 {
			if p := h.PowerW(); !(p > 0) {
				t.Fatalf("sigma %v seed %d draw %d: %v W", lo, seed, i, p)
			}
		}
	}
}
