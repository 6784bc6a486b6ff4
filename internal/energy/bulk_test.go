package energy

import (
	"math/rand/v2"
	"testing"
)

// refConsume is the per-op reference ConsumeN is checked against: one op
// of pj picojoules charged with each system's original scalar arithmetic,
// written out independently of the batched code under test. It reports
// whether the op was funded.
func refConsume(s System, pj int64) bool {
	switch s := s.(type) {
	case Continuous:
		return true
	case *Intermittent:
		s.remainingPJ -= pj
		return s.remainingPJ >= 0
	case *FailSchedule:
		gap := s.Period
		if s.cycle < len(s.Gaps) {
			gap = max(s.Gaps[s.cycle], 1)
		}
		if gap <= 0 {
			return true // gaps spent, no period: behave as continuous
		}
		s.count++
		return s.count < gap
	}
	panic("refConsume: no reference for this system")
}

// refConsumeN replays ConsumeN's contract one op at a time through
// refConsume: sequential charges, also charging the op that fails,
// returning how many were funded.
func refConsumeN(s System, pj int64, n int) int {
	for i := 0; i < n; i++ {
		if !refConsume(s, pj) {
			return i
		}
	}
	return n
}

// bulkPair pairs a system with an equally-configured twin so the batched
// path on one can be replayed op by op on the other.
type bulkPair struct {
	name   string
	bulk   System                                 // driven through ConsumeN (and ConsumePJ)
	ref    System                                 // driven through refConsume
	level  func(a, b System) (int64, int64, bool) // internal state, if any
	single func(pj int64) bool                    // a concrete per-op entry point, if any
}

// unwrap returns the system a PerOp reference wraps, or s itself.
func unwrap(s System) System {
	if p, ok := s.(PerOp); ok {
		return p.S
	}
	return s
}

func intLevel(a, b System) (int64, int64, bool) {
	return unwrap(a).(*Intermittent).remainingPJ, unwrap(b).(*Intermittent).remainingPJ, true
}

func pairs() []bulkPair {
	rf := ConstantHarvester{Watts: DefaultRFWatts}
	im := NewIntermittent(Cap100uF, rf)
	return []bulkPair{
		{name: "continuous", bulk: Continuous{}, ref: Continuous{}},
		{name: "intermittent",
			bulk:   im,
			ref:    NewIntermittent(Cap100uF, rf),
			level:  intLevel,
			single: im.ConsumePJ},
		{name: "fail-after-ops",
			bulk: NewFailAfterOps(137, 61),
			ref:  NewFailAfterOps(137, 61)},
		{name: "fail-schedule",
			bulk: NewFailSchedule([]int{97, 13, 1, 250}),
			ref:  NewFailSchedule([]int{97, 13, 1, 250})},
		{name: "fail-schedule-periodic",
			bulk: &FailSchedule{Gaps: []int{97, 13, 1, 250}, Period: 61},
			ref:  &FailSchedule{Gaps: []int{97, 13, 1, 250}, Period: 61}},
		// The reference power system the device oracles run on, over a
		// capacitor and a periodic fault schedule.
		{name: "per-op-intermittent",
			bulk:  PerOp{S: NewIntermittent(Cap100uF, rf)},
			ref:   NewIntermittent(Cap100uF, rf),
			level: intLevel},
		{name: "per-op-fail-schedule",
			bulk: PerOp{S: &FailSchedule{Gaps: []int{97, 13, 1, 250}, Period: 61}},
			ref:  &FailSchedule{Gaps: []int{97, 13, 1, 250}, Period: 61}},
	}
}

// TestConsumeNMatchesScalar is the property test of the one charge entry
// point: for every power system, an arbitrary interleaving of ConsumeN
// batches, one-op ConsumeN calls, Intermittent.ConsumePJ calls (the
// device's devirtualized per-op charge) and recharges leaves the system in
// a state bit-identical to the same interleaving replayed op by op through
// the independent per-op reference — including the funded count of every
// partial batch (the failing op's exact index).
func TestConsumeNMatchesScalar(t *testing.T) {
	costs := []float64{0, 0.1, 2.5, 10.4, 32.1, 100}
	for _, p := range pairs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xb01c, 0xcafe))
			midBatchFails, singles := 0, 0
			for step := 0; step < 6000; step++ {
				e := costs[rng.IntN(len(costs))]
				pj := PicojoulesOf(e)
				n := 1
				if rng.IntN(4) != 0 {
					n = 1 + rng.IntN(64)
				}
				var got int
				if n == 1 && p.single != nil && rng.IntN(2) == 0 {
					singles++
					if p.single(pj) {
						got = 1
					}
				} else {
					got = p.bulk.ConsumeN(pj, n)
				}
				if want := refConsumeN(p.ref, pj, n); got != want {
					t.Fatalf("step %d: %d op(s) of %d pJ: funded %d, reference funded %d",
						step, n, pj, got, want)
				}
				if got < n {
					if got > 0 {
						midBatchFails++
					}
					p.bulk.Recharge()
					p.ref.Recharge()
				}
				if p.level != nil {
					if a, b, ok := p.level(p.bulk, p.ref); ok && a != b {
						t.Fatalf("step %d: level diverged: bulk=%d reference=%d pJ", step, a, b)
					}
				}
			}
			// Failure-capable systems must have exercised failures landing
			// strictly inside a batch, not only at its first op.
			if _, cont := p.bulk.(Continuous); !cont && midBatchFails == 0 {
				t.Fatalf("no mid-batch failure was exercised; property vacuous")
			}
			if p.single != nil && singles == 0 {
				t.Fatalf("the per-op entry point was never exercised")
			}
		})
	}
}

// TestConsumePJMatchesConsume checks each system's per-op charge against
// the per-op reference (the scalar Consume bodies): Intermittent.ConsumePJ,
// the device's devirtualized per-op charge, and for every other system,
// PerOp included, the one-op ConsumeN(pj, 1) call the device charges
// through. A stream of single ops with recharges on failure must fund
// exactly the ops the reference funds and leave the same level. Every
// eighth op on a capacitor-backed system costs the remaining level give
// or take one picojoule, so the >= 0 brown-out boundary is hit exactly.
func TestConsumePJMatchesConsume(t *testing.T) {
	costs := []float64{0, 0.1, 2.5, 10.4, 32.1, 100}
	for _, p := range pairs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			one := p.single
			if one == nil {
				one = func(pj int64) bool { return p.bulk.ConsumeN(pj, 1) == 1 }
			}
			rng := rand.New(rand.NewPCG(0x9e37, 0x79b9))
			fails, boundary := 0, 0
			for step := 0; step < 6000; step++ {
				pj := PicojoulesOf(costs[rng.IntN(len(costs))])
				if p.level != nil && rng.IntN(8) == 0 {
					// Land on the brown-out boundary: drain the level
					// exactly, or miss it by one picojoule either way.
					_, lvl, _ := p.level(p.bulk, p.ref)
					pj, boundary = max(lvl+int64(rng.IntN(3))-1, 0), boundary+1
				}
				got, want := one(pj), refConsume(p.ref, pj)
				if got != want {
					t.Fatalf("step %d: op of %d pJ funded=%v, reference funded=%v", step, pj, got, want)
				}
				if !got {
					fails++
					p.bulk.Recharge()
					p.ref.Recharge()
				}
				if p.level != nil {
					if a, b, ok := p.level(p.bulk, p.ref); ok && a != b {
						t.Fatalf("step %d: level diverged: per-op=%d reference=%d pJ", step, a, b)
					}
				}
			}
			if _, cont := p.bulk.(Continuous); !cont && fails == 0 {
				t.Fatalf("no failure was exercised; property vacuous")
			}
			if p.level != nil && boundary == 0 {
				t.Fatalf("the brown-out boundary was never exercised")
			}
		})
	}
}
