// Package fleet sweeps campaigns of many independent energy-harvesting
// device instances — each with its own harvest seed, capacitor, power
// system, network, and runtime — across a sharded worker pool, streaming
// per-device metrics into aggregate statistics (IMpJ and latency quantile
// sketches, reboot and wasted-energy histograms) whose memory stays
// O(workers + shards), never O(fleet).
//
// Determinism: device i's entire simulation is a pure function of
// (Spec, i) — its harvest seed, model, runtime, and power system are all
// derived from the campaign seed and the device index, never from which
// worker ran it. Devices are assigned to a fixed number of logical shards
// by index (i mod Shards), each shard aggregates its devices in index
// order, and shards merge in shard order, so the campaign result is
// bit-identical under any worker count (see
// TestFleetDeterministicAcrossWorkers).
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// PowerClass names one power configuration devices of the fleet may get;
// the embedded SystemSpec describes capacitor and harvester, and each
// device instantiates it with its own derived seed.
type PowerClass struct {
	Name string `json:"name"`
	energy.SystemSpec
}

// Spec describes one fleet campaign. Device i cycles through the
// Models × Runtimes × Powers cross product (models fastest) and gets a
// harvest seed derived from (Seed, i), so the fleet covers every
// combination with per-device stochastic variation, and any single device
// can be re-simulated in isolation from the spec alone.
type Spec struct {
	// Devices is the fleet size.
	Devices int `json:"devices"`
	// Seed pins every derived per-device seed.
	Seed uint64 `json:"seed"`
	// Models names the networks devices run (resolved by the caller's
	// model registry — e.g. "tiny", "mnist", "har", "okg").
	Models []string `json:"models"`
	// Runtimes names the inference runtimes ("base", "tile-8", "tile-32",
	// "tile-128", "sonic", "tails", "ckpt-8", ...).
	Runtimes []string `json:"runtimes"`
	// Powers lists the power classes devices draw from.
	Powers []PowerClass `json:"powers"`
	// Shards is the number of logical aggregation shards (DefaultShards
	// when zero). It is part of the campaign's identity: shard grouping
	// affects sketch compression points, so changing it may change
	// aggregate bits (never their statistical meaning).
	Shards int `json:"shards,omitempty"`
}

// DefaultShards is the logical shard count campaigns default to — enough
// to keep any plausible worker count busy, small enough that per-shard
// aggregate state stays trivially bounded.
const DefaultShards = 64

// DeviceSpec is one resolved device instance of a campaign.
type DeviceSpec struct {
	Index       int
	Model       string
	Runtime     string
	Power       PowerClass
	HarvestSeed uint64
}

// shardCount returns the effective logical shard count.
func (s *Spec) shardCount() int {
	n := s.Shards
	if n <= 0 {
		n = DefaultShards
	}
	if n > s.Devices {
		n = s.Devices
	}
	return n
}

// Device derives the i-th device instance. It is a pure function of
// (spec, i): worker scheduling can never influence what a device is.
func (s *Spec) Device(i int) DeviceSpec {
	idx := i
	m := s.Models[idx%len(s.Models)]
	idx /= len(s.Models)
	rt := s.Runtimes[idx%len(s.Runtimes)]
	idx /= len(s.Runtimes)
	p := s.Powers[idx%len(s.Powers)]
	return DeviceSpec{Index: i, Model: m, Runtime: rt, Power: p, HarvestSeed: deviceSeed(s.Seed, i)}
}

// deviceSeed derives device i's harvest seed from the campaign seed with
// a SplitMix64 finalizer, mirroring the energy package's seeding: one
// campaign seed pins every device's stochastic harvest sequence, and
// distinct indices get well-separated streams.
func deviceSeed(seed uint64, i int) uint64 {
	z := seed + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Validate checks the spec against a model registry. MaxDevices guards
// the serving path against unbounded job submissions.
func (s *Spec) Validate(models map[string]Model) error {
	if s.Devices <= 0 {
		return fmt.Errorf("fleet: campaign needs a positive device count, got %d", s.Devices)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("fleet: campaign names no models")
	}
	for _, m := range s.Models {
		if _, ok := models[m]; !ok {
			return fmt.Errorf("fleet: unknown model %q", m)
		}
	}
	if len(s.Runtimes) == 0 {
		return fmt.Errorf("fleet: campaign names no runtimes")
	}
	for _, r := range s.Runtimes {
		if _, err := RuntimeByName(r); err != nil {
			return err
		}
	}
	if len(s.Powers) == 0 {
		return fmt.Errorf("fleet: campaign names no power classes")
	}
	for i, p := range s.Powers {
		if err := p.SystemSpec.Validate(); err != nil {
			return fmt.Errorf("fleet: power class %d (%q): %w", i, p.Name, err)
		}
	}
	if s.Shards < 0 {
		return fmt.Errorf("fleet: negative shard count %d", s.Shards)
	}
	return nil
}

// Hash returns the campaign's content address: a hex sha256 over every
// result-affecting spec field (all wire fields — even Shards, which fixes
// the aggregation grouping). Identical specs hash identically, which is what
// lets the serving front-end answer duplicate jobs from cache without
// re-running a single device.
//
// Shards is hashed in its *normalized* form (shardCount): a spec with
// Shards:0 and one with Shards:DefaultShards run the identical campaign,
// as does any over-count clamped down to Devices, so they must share a
// content address or the serve path re-simulates whole fleets for
// spellings of the same job.
func (s *Spec) Hash() string {
	// Struct JSON field order is declaration order and the spec contains
	// no maps, so the encoding is canonical.
	norm := *s
	norm.Shards = s.shardCount()
	buf, err := json.Marshal(&norm)
	if err != nil {
		panic("fleet: spec does not marshal: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Model is one deployable network of the campaign's registry: a quantized
// model plus the input sample every device of the fleet infers on. The
// model is read-only during campaigns and safe to share across workers.
// Proto, when set by the registry (the serve model cache builds it once
// per prepared model), is the deploy-once provisioning prototype; when
// nil, campaigns build their own.
type Model struct {
	Net   string
	QM    *dnn.QuantModel
	Input []fixed.Q15
	Proto *Prototype
}

// RuntimeByName resolves a runtime name to a fresh instance: the fixed
// Fig. 9 set plus parameterized "tile-N" and "ckpt-N" forms.
func RuntimeByName(name string) (core.Runtime, error) {
	switch name {
	case "base":
		return baseline.Base{}, nil
	case "sonic":
		return sonic.SONIC{}, nil
	case "tails":
		return tails.TAILS{}, nil
	}
	// A malformed parameter on a recognized "tile-"/"ckpt-" prefix is not
	// an unknown runtime: report what is actually wrong with it.
	if n, ok := strings.CutPrefix(name, "tile-"); ok {
		size, err := strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("fleet: runtime %q: tile size %q is not a number", name, n)
		}
		if size <= 0 {
			return nil, fmt.Errorf("fleet: runtime %q: tile size must be positive, got %d", name, size)
		}
		return baseline.Tile{TileSize: size}, nil
	}
	if n, ok := strings.CutPrefix(name, "ckpt-"); ok {
		iv, err := strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("fleet: runtime %q: checkpoint interval %q is not a number", name, n)
		}
		if iv <= 0 {
			return nil, fmt.Errorf("fleet: runtime %q: checkpoint interval must be positive, got %d", name, iv)
		}
		return checkpoint.Checkpoint{Interval: iv}, nil
	}
	return nil, fmt.Errorf("fleet: unknown runtime %q", name)
}
