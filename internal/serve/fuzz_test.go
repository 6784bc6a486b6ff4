package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/energy"
	"repro/internal/fleet"
)

// FuzzSpecDecode drives the POST /jobs decoder with arbitrary bodies:
// decoding, validation and content addressing must never panic, and a
// valid spec must keep its content address through a marshal/decode
// round trip, since dedup answers resubmissions by that address.
func FuzzSpecDecode(f *testing.F) {
	valid := func(mut func(*fleet.Spec)) []byte {
		s := tinySpec(10)
		mut(&s)
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// The rejected bodies of TestServeRejectsBadSpecs and
	// TestServeRejectsOutOfRangePower, plus valid specs.
	for _, seed := range [][]byte{
		[]byte("{not json"),
		[]byte(`{"bogus_field": 1}`),
		valid(func(s *fleet.Spec) { s.Devices = 5000 }),
		valid(func(s *fleet.Spec) { s.Models = []string{"resnet"} }),
		valid(func(s *fleet.Spec) { s.Shards = fleet.MaxShards + 1 }),
		valid(func(s *fleet.Spec) {}),
		valid(func(s *fleet.Spec) { s.Shards = 7; s.Runtimes = []string{"tile-0", "ckpt-x"} }),
		valid(func(s *fleet.Spec) {
			s.Powers = append(s.Powers, fleet.PowerClass{Name: "trace",
				SystemSpec: energy.SystemSpec{Kind: "trace", CapFarads: 47e-6, Trace: []float64{1e-3, -0.0, 4e-3}}})
		}),
		valid(func(s *fleet.Spec) {
			s.Powers = []fleet.PowerClass{{Name: "huge", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 1e10}}}
		}),
		valid(func(s *fleet.Spec) {
			s.Powers = []fleet.PowerClass{{Name: "wild", SystemSpec: energy.SystemSpec{Kind: "stoch", CapFarads: 2e-5, Sigma: 38.5}}}
		}),
	} {
		f.Add(seed)
	}
	models := map[string]fleet.Model{"tiny": {}}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		hash := spec.Hash()
		if spec.Validate(models) != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		back, err := decodeSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-marshalled valid spec does not decode: %v\n%s", err, again)
		}
		if back.Hash() != hash {
			t.Fatalf("content address moved through a marshal round trip:\n%s\n%s", body, again)
		}
	})
}
