package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mcu"
)

// DeviceStats is the per-device metric record a simulation extracts. It
// is consumed immediately by the shard aggregates and never retained, so
// fleet memory stays independent of fleet size.
type DeviceStats struct {
	Completed bool
	// IMpJ is inferences per millijoule of consumed energy — the fleet
	// form of the paper's energy-efficiency axis (zero for devices whose
	// runtime does not complete on their power system).
	IMpJ float64
	// FirstInferSec is the latency from first boot to the first completed
	// inference: live execution plus every recharge wait the run actually
	// incurred.
	FirstInferSec float64
	Reboots       int
	EnergyPJ      int64
	WastedNJ      float64
	// Ops is the total number of charged ops the device executed across
	// all kinds — the work denominator for fleet throughput readouts.
	Ops int64
}

// runDevice drives one prepared (deployed, powered) device through its
// inference and extracts the per-device stats. Wasted-work accounting runs
// device-native (Device.TrackWasted replicates the trace analysis
// arithmetic bit-exactly) instead of through a per-device trace buffer,
// which would cost a ring allocation and an event per commit for a figure
// the device already carries. The fleet oracles' fresh-deploy reference
// drives every one of its devices through runDevice too, so a campaign
// and the reference can only diverge in how the device was prepared and
// in the shared execution's per-device latency replay — which the
// provisioned-≡-fresh and shared-execution oracles pin down.
func runDevice(dev *mcu.Device, img *core.Image, ds DeviceSpec, m Model, rt core.Runtime) (DeviceStats, error) {
	_, ierr := rt.Infer(img, m.Input)
	st := dev.Stats()
	out := DeviceStats{
		Reboots:  st.Reboots,
		EnergyPJ: st.EnergyPJ,
		WastedNJ: dev.WastedNJ(),
	}
	for _, n := range st.OpCount {
		out.Ops += n
	}
	if ierr != nil {
		if errors.Is(ierr, mcu.ErrDoesNotComplete) {
			return out, nil // a DNC device is a data point, not a failure
		}
		return out, fmt.Errorf("fleet: device %d (%s/%s/%s): %w", ds.Index, m.Net, ds.Runtime, ds.Power.Name, ierr)
	}
	out.Completed = true
	out.FirstInferSec = st.TotalSeconds(dev.Cost.ClockHz)
	if mj := st.EnergyMJ(); mj > 0 {
		out.IMpJ = 1 / mj
	}
	return out, nil
}

// Aggregates is the mergeable accumulator of fleet-wide statistics. All
// integer fields merge by addition; the sketches and histograms merge by
// their own order-independent (histograms) or fixed-order (sketches)
// rules. Its memory is O(sketch compression + histogram bins), fixed for
// the life of a campaign.
type Aggregates struct {
	Devices   int64
	Completed int64
	DNC       int64 // devices whose runtime cannot finish on their power
	Reboots   int64
	EnergyPJ  int64   // total consumed, integer picojoules (order-free sum)
	WastedNJ  float64 // total re-executed energy across the fleet
	// Ops is the fleet-wide charged-op total. It feeds the serving API's
	// throughput counters and is deliberately NOT part of Summary, the
	// campaign's wire-format result.
	Ops int64

	IMpJ       *Sketch // inferences per millijoule, completed devices
	FirstSec   *Sketch // latency to first inference, completed devices
	RebootHist *Hist   // reboots per device (bin i = exactly i, last = more)
	WastedHist *Hist   // wasted nJ per device, log bins
}

// Histogram shapes: reboot counts resolve exactly up to rebootHistMax,
// wasted energy spans sub-nJ to tens of J at 4 bins per decade.
const rebootHistMax = 64

func newAggregates() *Aggregates {
	return &Aggregates{
		IMpJ:       NewSketch(0),
		FirstSec:   NewSketch(0),
		RebootHist: NewLinearHist(rebootHistMax),
		WastedHist: NewLogHist(1, 10, 4),
	}
}

// observe folds one device's stats in.
func (a *Aggregates) observe(st DeviceStats) {
	a.Devices++
	a.Reboots += int64(st.Reboots)
	a.EnergyPJ += st.EnergyPJ
	a.WastedNJ += st.WastedNJ
	a.Ops += st.Ops
	a.RebootHist.Add(float64(st.Reboots))
	a.WastedHist.Add(st.WastedNJ)
	if st.Completed {
		a.Completed++
		a.IMpJ.Add(st.IMpJ)
		a.FirstSec.Add(st.FirstInferSec)
	} else {
		a.DNC++
	}
}

// merge folds o into a without modifying o, so live shard aggregates can
// be merged into snapshot accumulators mid-run.
func (a *Aggregates) merge(o *Aggregates) error {
	a.Devices += o.Devices
	a.Completed += o.Completed
	a.DNC += o.DNC
	a.Reboots += o.Reboots
	a.EnergyPJ += o.EnergyPJ
	a.WastedNJ += o.WastedNJ
	a.Ops += o.Ops
	a.IMpJ.Merge(o.IMpJ)
	a.FirstSec.Merge(o.FirstSec)
	if err := a.RebootHist.Merge(o.RebootHist); err != nil {
		return err
	}
	return a.WastedHist.Merge(o.WastedHist)
}

// Quantiles is a fixed percentile readout of one sketch.
type Quantiles struct {
	Min float64 `json:"min"`
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func quantilesOf(s *Sketch) Quantiles {
	if s.Count() == 0 {
		return Quantiles{}
	}
	return Quantiles{
		Min: s.Min(),
		P10: s.Quantile(0.10),
		P50: s.Quantile(0.50),
		P90: s.Quantile(0.90),
		P99: s.Quantile(0.99),
		Max: s.Max(),
	}
}

// Summary is the JSON-ready aggregate view the serving API streams.
type Summary struct {
	Devices      int64     `json:"devices"`
	Completed    int64     `json:"completed"`
	DNC          int64     `json:"dnc"`
	Reboots      int64     `json:"reboots"`
	EnergyJ      float64   `json:"energy_j"`
	WastedJ      float64   `json:"wasted_j"`
	IMpJ         Quantiles `json:"impj"`
	FirstInferS  Quantiles `json:"first_infer_s"`
	RebootHist   []Bucket  `json:"reboot_hist"`
	WastedNJHist []Bucket  `json:"wasted_nj_hist"`
}

// Summary materializes the aggregate readout.
func (a *Aggregates) Summary() Summary {
	return Summary{
		Devices:      a.Devices,
		Completed:    a.Completed,
		DNC:          a.DNC,
		Reboots:      a.Reboots,
		EnergyJ:      float64(a.EnergyPJ) * 1e-12,
		WastedJ:      a.WastedNJ * 1e-9,
		IMpJ:         quantilesOf(a.IMpJ),
		FirstInferS:  quantilesOf(a.FirstSec),
		RebootHist:   a.RebootHist.Buckets(),
		WastedNJHist: a.WastedHist.Buckets(),
	}
}

// Result is a finished (or snapshotted) campaign's output. Provision
// counts provisioning work (prototype/slot deploys, restores, page
// traffic); unlike Agg it depends on worker scheduling, so it is not part
// of the campaign's deterministic result.
type Result struct {
	Spec      Spec
	Done      int
	Agg       *Aggregates
	Provision ProvisionStats
}

// shard is one logical aggregation unit. Exactly one worker owns a shard
// at a time during Run; the mutex exists so Snapshot can read live shards
// concurrently with that worker.
type shard struct {
	mu  sync.Mutex
	agg *Aggregates
}

// Campaign is an in-flight fleet sweep: construct with NewCampaign, drive
// with Run, observe with Progress/Snapshot from any goroutine.
type Campaign struct {
	spec   Spec
	rts    map[string]core.Runtime
	protos map[string]*Prototype
	execs  []*execUse
	shards []*shard
	done   atomic.Int64

	provMu sync.Mutex
	prov   ProvisionStats
}

// NewCampaign validates the spec against the model registry and prepares
// the shard aggregates. It leaves the prototypes' execution tables alone:
// a campaign takes its slots there only when it runs.
func NewCampaign(spec Spec, models map[string]Model) (*Campaign, error) {
	if err := spec.Validate(models); err != nil {
		return nil, err
	}
	c := &Campaign{spec: spec, rts: make(map[string]core.Runtime),
		protos: make(map[string]*Prototype, len(spec.Models))}
	for _, name := range spec.Runtimes {
		rt, err := RuntimeByName(name)
		if err != nil {
			return nil, err
		}
		c.rts[name] = rt
	}
	for _, name := range spec.Models {
		if _, ok := c.protos[name]; ok {
			continue
		}
		m := models[name]
		if m.Proto != nil {
			// A registry-cached prototype (the serve model cache builds one
			// per prepared model) saves even the campaign's single
			// prototype deploy, and its execution table carries every
			// execution earlier campaigns over the model simulated.
			c.protos[name] = m.Proto
			continue
		}
		proto, err := NewPrototype(m)
		if err != nil {
			return nil, err
		}
		c.protos[name] = proto
		c.prov.Prototypes++
	}
	c.shards = make([]*shard, spec.shardCount())
	for i := range c.shards {
		c.shards[i] = &shard{agg: newAggregates()}
	}
	return c, nil
}

// Spec returns the campaign's spec.
func (c *Campaign) Spec() Spec { return c.spec }

// Progress reports devices simulated so far and the fleet size.
func (c *Campaign) Progress() (done, total int) {
	return int(c.done.Load()), c.spec.Devices
}

// Snapshot merges the current shard aggregates into a fresh Result — the
// streamed mid-campaign view. Snapshotting never mutates shard state, so
// it cannot perturb the final deterministic aggregates.
func (c *Campaign) Snapshot() (*Result, error) {
	agg := newAggregates()
	for _, sh := range c.shards {
		sh.mu.Lock()
		err := agg.merge(sh.agg)
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	c.provMu.Lock()
	prov := c.prov
	c.provMu.Unlock()
	return &Result{Spec: c.spec, Done: int(c.done.Load()), Agg: agg, Provision: prov}, nil
}

// Run sweeps the fleet across workers goroutines (GOMAXPROCS when <= 0).
// Workers claim whole shards; shard s simulates devices s, s+S, s+2S, ...
// in index order, so the aggregation sequence of every shard — and hence
// the merged result — is identical under any worker count. Cancelling the
// context stops the sweep and returns the context's error. Any worker
// error likewise cancels the sweep, so peers stop at their next device
// instead of simulating the rest of the fleet behind a lost cause.
//
// Run first takes the campaign's execution-table slots from its
// prototypes, so a campaign that is built but never run (a server turns
// it away, or cancels it while queued) neither inserts nor evicts table
// entries.
func (c *Campaign) Run(ctx context.Context, workers int) (*Result, error) {
	c.execs = c.newExecUses()
	return c.sweep(ctx, workers)
}

// sweep is Run over the execution-table slots already taken.
func (c *Campaign) sweep(ctx context.Context, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.shards) {
		workers = len(c.shards)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker simulates the executions it reaches first on a
			// private pool: one reusable device per model, rewound by COW
			// restore between executions. Pool state never crosses
			// workers, and an execution is bit-identical to a fresh deploy
			// whichever device ran it, so shard results stay a pure
			// function of (spec, index).
			pool := c.newPool()
			defer func() {
				c.provMu.Lock()
				c.prov.Add(pool.stats)
				c.provMu.Unlock()
			}()
			for {
				s := int(next.Add(1) - 1)
				if s >= len(c.shards) {
					return
				}
				if errs[w] = c.runShard(ctx, s, pool); errs[w] != nil {
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Prefer a worker's real failure over the context.Canceled fallout its
	// cancellation induced in the peers.
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		if first == nil && err != nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return c.Snapshot()
}

// runShard folds in every device of shard s in index order, simulating
// each execution the shard reaches first on the owning worker's pool.
func (c *Campaign) runShard(ctx context.Context, s int, pool *pool) error {
	sh := c.shards[s]
	stride := len(c.shards)
	for i := s; i < c.spec.Devices; i += stride {
		if err := ctx.Err(); err != nil {
			return err
		}
		ds := c.spec.Device(i)
		st, err := c.device(ds, pool)
		if err != nil {
			return err
		}
		sh.mu.Lock()
		sh.agg.observe(st)
		sh.mu.Unlock()
		c.done.Add(1)
	}
	return nil
}

// Run is the one-shot form: build a campaign and sweep it.
func Run(ctx context.Context, spec Spec, models map[string]Model, workers int) (*Result, error) {
	c, err := NewCampaign(spec, models)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, workers)
}
