package main

import (
	"repro/internal/harness"
)

// metricDef names one reported metric. Bound is the share of the baseline
// value by which an end-to-end metric may worsen before -compare calls it
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are reported by every workload: what a user of the simulator
// waits for and gets, as the median over the run's units of work (a fleet
// sweep, a Fig. 9 matrix, a pair of brown-out campaigns, a served job),
// in reference seconds (refclock.go). latency_s is a unit's time (a served
// job's from its due time to the first poll that sees it done); work_per_s
// is the simulated work it retired per second (devices, cells, boundaries;
// a served job's devices over its elapsed_s, queued to finished). setup_s
// is the median of the run's cold set-ups.
//
// The bounds are the widest allowed because of serve-jobs: a 10-second
// run serves about 40 jobs, and a 60 ms job's service time alone varies
// by ±15% from run to run on the sizing host, so across ten seeds its
// median latency spreads by 8-11% (18-30% at 10 arrivals/s, where the
// median job sits at the queueing knee). The other workloads spread by
// 3-9%. A bound is shared by all workloads.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// Workload names, in the order -workload all runs them.
const (
	wFleet    = "fleet-sweep"
	wFig9     = "fig9-matrix"
	wBrownout = "brownout-campaign"
	wServe    = "serve-jobs"
)

var workloadNames = []string{wFleet, wFig9, wBrownout, wServe}

// The fleet cell grid shared by fleet-sweep and serve-jobs: every net ×
// runtime × power class.
var (
	fleetRuntimes = []string{"tile-32", "sonic", "tails"}
	fleetPowers   = []string{"cont", "rf-100uF", "stoch-100uF"}
)

// campaignRuntimes names the brown-out campaign's runtimes: the six of
// Fig. 9, the checkpointing runtime and the WAR-broken negative control.
func campaignRuntimes() []string {
	return append(fig9Runtimes(), "ckpt-8", "broken")
}

func fig9Runtimes() []string {
	var out []string
	for _, rt := range harness.Runtimes() {
		out = append(out, rt.Name())
	}
	return out
}

// layerMetrics lists every per-layer metric the traced pass reports.
func layerMetrics() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, net := range harness.Networks() {
		for _, rt := range fleetRuntimes {
			for _, pw := range fleetPowers {
				add("infer."+net+"."+rt+"."+pw+".ns_per_op", "ns/op", "lower")
			}
		}
	}
	for _, net := range harness.Networks() {
		add("core.deploy_ms."+net, "ms", "lower")
	}
	add("fleet.new_campaign_ms", "ms", "lower")
	add("fleet.restores", "count", "lower")
	add("fleet.pages_copied", "count", "lower")
	add("fleet.pages_clean", "count", "lower")
	add("fleet.pages_skipped", "count", "higher")
	add("fleet.slot_deploys", "count", "lower")
	add("fleet.host_ns_per_op", "ns/op", "lower")
	add("fleet.ops_per_device", "count", "lower")
	add("fleet.alloc_bytes_per_device", "B", "lower")
	add("fleet.run_1w_devices_per_s", "1/s", "higher")
	add("fleet.parallel_efficiency", "ratio", "higher")
	add("fleet.summary_ms", "ms", "lower")
	for _, rt := range fig9Runtimes() {
		add("harness.measure_traced_ms."+rt, "ms", "lower")
	}
	for _, rt := range fig9Runtimes() {
		add("harness.measure_ms."+rt, "ms", "lower")
	}
	add("harness.trace_overhead", "ratio", "lower")
	add("harness.parallel_efficiency", "ratio", "higher")
	add("harness.dnc_cells", "count", "lower")
	for _, rt := range campaignRuntimes() {
		add("intermittest."+rt+".golden_ms", "ms", "lower")
		add("intermittest."+rt+".check_us", "us", "lower")
		add("intermittest."+rt+".sweep_ms", "ms", "lower")
	}
	add("intermittest.boundaries", "count", "higher")
	add("intermittest.unsafe_boundaries", "count", "lower")
	add("serve.submit_ms_p50", "ms", "lower")
	add("serve.submit_ms_p90", "ms", "lower")
	add("serve.dedup_ms_p50", "ms", "lower")
	add("serve.dedup_ms_max", "ms", "lower")
	add("serve.get_ms_p50", "ms", "lower")
	add("serve.queue_wait_ms_p50", "ms", "lower")
	add("serve.queue_wait_ms_p90", "ms", "lower")
	add("serve.run_ms_p50", "ms", "lower")
	add("serve.run_ms_p90", "ms", "lower")
	add("serve.backlog_max", "count", "lower")
	add("serve.backlog_end", "count", "lower")
	add("serve.busy_frac", "ratio", "lower")
	add("serve.devices_per_s", "1/s", "higher")
	add("loadgen.late_ms_p90", "ms", "lower")
	add("loadgen.late_ms_max", "ms", "lower")
	add("loadgen.polls", "count", "lower")
	add("genesis.prepare_s", "s", "lower")
	add("dnn.train_epochs", "count", "lower")
	add("serve.warmup_s", "s", "lower")
	for _, w := range workloadNames {
		add("go.heap_peak_mb."+w, "MB", "lower")
	}
	for _, w := range workloadNames {
		add("bench.trace_overhead."+w, "ratio", "lower")
	}
	return defs
}
