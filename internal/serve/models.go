package serve

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/intermittest"
)

// ModelSource resolves model names for fleet specs.
type ModelSource interface {
	Model(name string) (fleet.Model, error)
}

// ModelCache is the serving-side model registry: each named network is
// prepared at most once per process and the resulting deployable model is
// shared, read-only, by every job that references it. Preparation goes
// through harness.Prepare, so with a CacheDir set the GENESIS report comes
// from the content-addressed report cache and a warm server trains
// nothing at all.
//
// Builds are per-model singleflight: the cache mutex is held only for map
// bookkeeping, never across harness.Prepare, so a submission referencing a
// cached model is not serialized behind another model's training. Callers
// asking for the same in-flight model wait on that one build.
type ModelCache struct {
	po harness.PrepareOptions

	mu         sync.Mutex
	entries    map[string]*modelEntry
	prepares   int64
	prototypes int64
}

// modelEntry is one model's singleflight slot: ready closes when the
// build finishes, after m and err are set (they are immutable from then
// on).
type modelEntry struct {
	ready chan struct{}
	m     fleet.Model
	err   error
}

// NewModelCache returns an empty cache preparing networks with po.
func NewModelCache(po harness.PrepareOptions) *ModelCache {
	return &ModelCache{po: po, entries: make(map[string]*modelEntry)}
}

// Model resolves one model name: "tiny" (the intermittence-test network,
// built in-process) or an evaluation network prepared via GENESIS.
func (c *ModelCache) Model(name string) (fleet.Model, error) {
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.m, e.err
	}
	e := &modelEntry{ready: make(chan struct{})}
	c.entries[name] = e
	c.mu.Unlock()

	e.m, e.err = c.build(name)
	close(e.ready)

	c.mu.Lock()
	if e.err != nil {
		// Errors are not cached: a later submission retries the build.
		delete(c.entries, name)
	} else {
		c.prepares++
		c.prototypes++
	}
	c.mu.Unlock()
	return e.m, e.err
}

// build constructs one model, outside any lock. Every cached model ships
// with its provisioning prototype, so campaigns referencing it restore
// pooled devices from the cache's deploy-once snapshots instead of each
// building their own (and the campaign-side Prototypes counter stays at
// zero for served jobs — the cache's prototype count is the source of
// truth). The prototype's execution table lives as long as the model, so
// a job simulates only the (runtime, capacitor) executions no earlier job
// left there and replays its devices' harvesters over the rest; a rebuilt
// model gets a new prototype, and with it an empty table.
func (c *ModelCache) build(name string) (fleet.Model, error) {
	var m fleet.Model
	switch {
	case name == "tiny":
		qm, x := intermittest.TinyModel(c.po.Seed)
		m = fleet.Model{Net: "tiny", QM: qm, Input: qm.QuantizeInput(x)}
	case slices.Contains(harness.Networks(), name):
		p, err := harness.Prepare(name, c.po)
		if err != nil {
			return fleet.Model{}, fmt.Errorf("serve: preparing %s: %w", name, err)
		}
		m = fleet.Model{Net: name, QM: p.Model, Input: p.QuantInput()}
	default:
		return fleet.Model{}, fmt.Errorf("serve: unknown model %q (have tiny, %v)", name, harness.Networks())
	}
	proto, err := fleet.NewPrototype(m)
	if err != nil {
		return fleet.Model{}, err
	}
	m.Proto = proto
	return m, nil
}

// Prepares reports how many distinct models have been built — jobs
// re-using a model do not increment it, which the lifecycle tests assert.
func (c *ModelCache) Prepares() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prepares
}

// CacheStats is the model cache's counter snapshot, served on /stats.
type CacheStats struct {
	// Models is the number of distinct models built and cached.
	Models int64 `json:"models"`
	// Prototypes is the number of deploy-once provisioning prototypes
	// built alongside them (one per cached model).
	Prototypes int64 `json:"prototypes"`
	// ExecStats sums the prototypes' execution tables: executions
	// simulated into them, answered from them to a later job, and
	// evicted by their LRU bound.
	fleet.ExecStats
}

// CacheStats returns the counter snapshot.
func (c *ModelCache) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Models: c.prepares, Prototypes: c.prototypes}
	for _, e := range c.entries {
		select {
		case <-e.ready:
		default:
			continue // still building
		}
		if e.err == nil {
			x := e.m.Proto.ExecStats()
			st.Simulated += x.Simulated
			st.Reused += x.Reused
			st.Evicted += x.Evicted
		}
	}
	return st
}

// registry resolves a spec's model list into the map fleet campaigns
// consume.
func registry(src ModelSource, names []string) (map[string]fleet.Model, error) {
	out := make(map[string]fleet.Model, len(names))
	for _, n := range names {
		if _, ok := out[n]; ok {
			continue
		}
		m, err := src.Model(n)
		if err != nil {
			return nil, err
		}
		out[n] = m
	}
	return out, nil
}
