package harness

import (
	"os"
	"testing"

	"repro/internal/dnn"
)

// TestReportCacheLifecycle drives the content-addressed report cache
// through its states: cold miss (trains, writes), warm hit (zero training
// epochs), options-hash invalidation (retrains), and corrupt-entry
// fallback (retrains and rewrites).
func TestReportCacheLifecycle(t *testing.T) {
	dir := t.TempDir()
	po := PrepareOptions{Seed: 5, Quick: true, CacheDir: dir}

	e0 := dnn.EpochsRun()
	cold, err := Prepare("har", po)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("cold run reported a cache hit")
	}
	if dnn.EpochsRun() == e0 {
		t.Error("cold run performed no training")
	}

	e1 := dnn.EpochsRun()
	warm, err := Prepare("har", po)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("warm run missed the cache")
	}
	if got := dnn.EpochsRun(); got != e1 {
		t.Errorf("warm run trained %d epochs, want 0", got-e1)
	}
	if warm.Report.Chosen != cold.Report.Chosen ||
		len(warm.Report.Results) != len(cold.Report.Results) {
		t.Errorf("warm report differs: chosen %d/%d results %d/%d",
			warm.Report.Chosen, cold.Report.Chosen,
			len(warm.Report.Results), len(cold.Report.Results))
	}
	for i := range cold.Report.Results {
		c, w := &cold.Report.Results[i], &warm.Report.Results[i]
		if c.Accuracy != w.Accuracy || c.EInferJ != w.EInferJ || c.ParamBytes != w.ParamBytes {
			t.Errorf("result %d differs after cache round-trip", i)
		}
	}

	// Changing any result-affecting option must change the key and retrain.
	changed := po
	changed.Seed = 6
	e2 := dnn.EpochsRun()
	inv, err := Prepare("har", changed)
	if err != nil {
		t.Fatal(err)
	}
	if inv.CacheHit {
		t.Error("changed options still hit the cache")
	}
	if dnn.EpochsRun() == e2 {
		t.Error("invalidated run performed no training")
	}

	// A corrupt entry must fall back to retraining, then self-heal.
	path := reportCachePath(dir, genesisOptions("har", po))
	if err := os.WriteFile(path, []byte("not a gob record"), 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := dnn.EpochsRun()
	rec, err := Prepare("har", po)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CacheHit {
		t.Error("corrupt entry reported as a hit")
	}
	if dnn.EpochsRun() == e3 {
		t.Error("corrupt-entry run performed no training")
	}
	again, err := Prepare("har", po)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("cache not rewritten after corrupt-entry fallback")
	}
}

// TestOptionsHashIgnoresParallelismKnobs pins the cache-key contract:
// Workers does not affect results (the determinism oracle proves it), so
// runs with any worker count must share cache entries.
func TestOptionsHashIgnoresParallelismKnobs(t *testing.T) {
	a := genesisOptions("har", PrepareOptions{Seed: 5, Quick: true})
	for _, w := range []int{1, 7} {
		b := a
		b.Workers = w
		if OptionsHash(a) != OptionsHash(b) {
			t.Errorf("Workers %d changed the cache key", w)
		}
	}
	c := a
	c.FRAMBudgetBytes++
	if OptionsHash(a) == OptionsHash(c) {
		t.Error("FRAM budget change did not change the cache key")
	}
	d := a
	d.PruneLevels = append([]float64{0.1}, a.PruneLevels...)
	if OptionsHash(a) == OptionsHash(d) {
		t.Error("prune-grid change did not change the cache key")
	}
}
