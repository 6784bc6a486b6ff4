package energy

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// execRecord is everything a run on an Intermittent can observe except
// time: each call's funded count, the op indices of the brown-outs, and
// the recorded deficits.
type execRecord struct {
	Funded    []int
	BrownOuts []int
	Deficits  DeficitTape
}

// runStream drives p with a fixed stream mixing per-op charges, batches,
// whole-block funding and voluntary recharges (which leave the capacitor
// partly full, so deficits vary), recharging after every brown-out. It
// returns the record and the Recharge returns summed in order from zero,
// as the device model sums them into Stats.DeadSeconds.
func runStream(p *Intermittent) (execRecord, float64) {
	p.RecordDeficits()
	rng := rand.New(rand.NewPCG(17, 71))
	var rec execRecord
	var dead float64
	ops := 0
	for i := 0; i < 20000; i++ {
		pj := int64(1 + rng.IntN(9000))
		n := 1
		if rng.IntN(3) == 0 {
			n = 1 + rng.IntN(200)
		}
		var got int
		failed := false
		switch rng.IntN(4) {
		case 0:
			ok := p.ConsumePJ(pj)
			got, failed = btoi(ok), !ok
		case 1, 2:
			got = p.ConsumeN(pj, n)
			failed = got < n
		default:
			got = p.FundWhole(pj, n)
		}
		rec.Funded = append(rec.Funded, got)
		ops += got
		if failed {
			rec.BrownOuts = append(rec.BrownOuts, ops)
		}
		if failed || rng.IntN(50) == 0 {
			dead += p.Recharge()
		}
	}
	rec.Deficits = p.Deficits()
	return rec, dead
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestHarvesterNeverSteersExecution is the energy oracle behind the fleet's
// shared executions: on one capacitor, every harvester kind and seed must
// fund the same op stream identically — same funded counts, brown-out
// points and deficit tape — so a run's execution depends on its power
// system only through ExecKey. Replaying the tape on a fresh harvester
// from the same seed must bit-equal the summed Recharge returns, which is
// how a fleet device derives its latency from another device's run.
func TestHarvesterNeverSteersExecution(t *testing.T) {
	const c = 100e-6
	specs := []SystemSpec{
		{Kind: "const", CapFarads: c},
		{Kind: "stoch", CapFarads: c},
		{Kind: "solar", CapFarads: c, Watts: 5e-3},
		{Kind: "trace", CapFarads: c, Trace: []float64{1e-3, 4e-3, 2.5e-3}},
	}
	var want *execRecord
	for _, spec := range specs {
		for _, seed := range []uint64{1, 2, 99} {
			t.Run(fmt.Sprintf("%s/seed-%d", spec.Kind, seed), func(t *testing.T) {
				if spec.ExecKey() != specs[0].ExecKey() {
					t.Fatalf("execution key %+v differs from %+v at the same capacitor", spec.ExecKey(), specs[0].ExecKey())
				}
				sys, err := spec.New(seed)
				if err != nil {
					t.Fatal(err)
				}
				rec, dead := runStream(sys.(*Intermittent))
				if len(rec.BrownOuts) < 10 || len(rec.Deficits) < 2 {
					t.Fatalf("degenerate stream: %d brown-outs, %d deficit runs", len(rec.BrownOuts), len(rec.Deficits))
				}
				if want == nil {
					want = &rec
				} else if !reflect.DeepEqual(rec, *want) {
					t.Fatal("the harvester changed what the capacitor funded")
				}
				h, err := spec.NewHarvester(seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := rec.Deficits.Dead(h); got != dead {
					t.Fatalf("replayed dead time %v != summed Recharge returns %v", got, dead)
				}
			})
		}
	}

	// The oracle is not vacuous: another capacitor has another key and
	// browns out elsewhere.
	other := SystemSpec{Kind: "const", CapFarads: 47e-6}
	if other.ExecKey() == specs[0].ExecKey() {
		t.Fatal("different capacitors share an execution key")
	}
	sys, err := other.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := runStream(sys.(*Intermittent)); want != nil && reflect.DeepEqual(rec.BrownOuts, want.BrownOuts) {
		t.Fatal("a 47 uF capacitor browns out exactly where a 100 uF one does")
	}
	if (SystemSpec{Kind: "cont"}).ExecKey() == (ExecKey{}) {
		t.Fatal("continuous power has the zero execution key")
	}
}
