package energy

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// drive applies a deterministic mixed prefix of single-op, batched, and
// recharge traffic to a power system.
func drive(s System, seed uint64, ops int) {
	rng := rand.New(rand.NewPCG(seed, mixSeed(seed)))
	for i := 0; i < ops; i++ {
		n := 1
		if rng.IntN(5) == 0 {
			n = 1 + rng.IntN(40)
		}
		if s.ConsumeN(PicojoulesOf(3.5), n) < n {
			s.Recharge()
		}
	}
}

// observe collects everything a power system makes visible, plus a probe of
// its forward behavior (the next 200 ops' failure pattern), which pins the
// hidden cursors too.
func observe(s System, probe System) []any {
	obs := []any{s.BufferEnergy()}
	if p, ok := s.(*Intermittent); ok {
		obs = append(obs, p.LevelNJ(), p.ObservedHarvestW(), slices.Clone(p.Deficits()))
	}
	if r, ok := s.(*Recorder); ok {
		obs = append(obs, r.LevelNJ(), append([]TracePoint(nil), r.Trace()...))
	}
	if probe != nil {
		pat := make([]bool, 200)
		for i := range pat {
			pat[i] = consume(probe, 3.5)
			if !pat[i] {
				probe.Recharge()
			}
		}
		obs = append(obs, pat)
	}
	return obs
}

// TestSnapshotRoundTripAllSystems: after an arbitrary op prefix, snapshot,
// run further, restore — the observable state (buffer pJ, schedule cursor,
// recorded trace, deficit tape) and all forward behavior must be bit-identical to the
// snapshot instant.
func TestSnapshotRoundTripAllSystems(t *testing.T) {
	mk := func() []System {
		taped := NewIntermittent(Cap100uF, ConstantHarvester{DefaultRFWatts})
		taped.RecordDeficits()
		return []System{
			Continuous{},
			NewIntermittent(Cap100uF, ConstantHarvester{DefaultRFWatts}),
			taped,
			NewFailAfterOps(137, 41),
			NewFailSchedule([]int{120, 75, 300}),
			NewRecorder(NewIntermittent(Cap100uF, ConstantHarvester{DefaultRFWatts}), 16),
		}
	}
	for i, s := range mk() {
		name := reflect.TypeOf(s).String()
		drive(s, uint64(i)+1, 5000)
		snap := s.(Snapshotter).SnapshotState()
		want := observe(s, nil)

		// Diverge, then restore.
		drive(s, 99, 3333)
		if err := RestoreState(s, snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := observe(s, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored observable state diverged:\n got %v\nwant %v", name, got, want)
		}

		// Forward behavior after restore must match a twin that was driven
		// identically and never restored.
		twin := mk()[i]
		drive(twin, uint64(i)+1, 5000)
		if got, want := observe(s, s), observe(twin, twin); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: post-restore behavior diverged:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestRestoreStateRejectsMismatch: a state restores only onto its own type.
func TestRestoreStateRejectsMismatch(t *testing.T) {
	f := NewFailSchedule([]int{10})
	st := f.SnapshotState()
	if err := RestoreState(NewFailAfterOps(5, 0), st); err == nil {
		t.Fatal("cross-type restore succeeded")
	}
	if err := RestoreState(f, nil); err == nil {
		t.Fatal("nil state restore succeeded")
	}
}
