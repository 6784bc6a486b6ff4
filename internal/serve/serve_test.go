package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/harness"
)

// newTestServer returns a Server over the tiny model plus an httptest
// front-end, torn down at test end.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	cache := NewModelCache(harness.PrepareOptions{Seed: 1, Quick: true})
	s := New(cache, opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func tinySpec(devices int) fleet.Spec {
	return fleet.Spec{
		Devices:  devices,
		Seed:     1,
		Models:   []string{"tiny"},
		Runtimes: []string{"base", "tile-32", "sonic", "tails"},
		Powers: []fleet.PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
}

func postSpec(t *testing.T, ts *httptest.Server, spec fleet.Spec) (jobDoc, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d jobDoc
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
	}
	return d, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var d jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		d := getJob(t, ts, id)
		if d.Status == want {
			return d
		}
		if d.Status == StatusFailed {
			t.Fatalf("job %s failed: %s", id, d.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, want)
	return jobDoc{}
}

// TestServeSubmitPollResult is the basic lifecycle: POST a spec, poll
// until done, check the aggregates answer the campaign.
func TestServeSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	d, code := postSpec(t, ts, tinySpec(200))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if d.ID == "" || d.Hash == "" || d.Total != 200 {
		t.Fatalf("bad submit doc: %+v", d)
	}
	fin := waitStatus(t, ts, d.ID, StatusDone)
	if fin.Done != 200 || fin.Agg == nil {
		t.Fatalf("finished doc missing progress/aggregates: %+v", fin)
	}
	if fin.Agg.Devices != 200 || fin.Agg.Completed == 0 {
		t.Fatalf("degenerate aggregates: %+v", fin.Agg)
	}
	if fin.Agg.IMpJ.P50 <= 0 {
		t.Fatalf("IMpJ median = %v, want > 0", fin.Agg.IMpJ.P50)
	}
}

// TestServeDuplicateSpecCacheHit proves content-addressed dedup: the same
// spec resubmitted — while running and after completion — is answered from
// the original job with zero additional simulation. Counters are the
// evidence: campaigns_run and devices_simulated must not move.
func TestServeDuplicateSpecCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	spec := tinySpec(300)
	first, code := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}

	// Duplicate while queued/running: same job id, no new campaign.
	dup, code := postSpec(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("duplicate status = %d, want 200", code)
	}
	if dup.ID != first.ID || !dup.Deduped {
		t.Fatalf("duplicate not served from original job: %+v", dup)
	}

	waitStatus(t, ts, first.ID, StatusDone)
	before := s.Stats()
	if before.CampaignsRun != 1 {
		t.Fatalf("campaigns_run = %d after one unique spec, want 1", before.CampaignsRun)
	}

	// Duplicate after completion: full cached aggregates, zero re-simulation.
	done, code := postSpec(t, ts, spec)
	if code != http.StatusOK || done.ID != first.ID || done.Status != StatusDone {
		t.Fatalf("post-completion duplicate: code=%d doc=%+v", code, done)
	}
	if done.Agg == nil || done.Agg.Devices != 300 {
		t.Fatalf("cached answer missing aggregates: %+v", done.Agg)
	}
	after := s.Stats()
	if after.CampaignsRun != before.CampaignsRun || after.DevicesSimulated != before.DevicesSimulated {
		t.Fatalf("duplicate spec re-simulated: before=%+v after=%+v", before, after)
	}
	if after.Deduped != 2 {
		t.Fatalf("deduped counter = %d, want 2", after.Deduped)
	}

	// A different spec is NOT deduped.
	other := spec
	other.Seed++
	od, code := postSpec(t, ts, other)
	if code != http.StatusAccepted || od.ID == first.ID {
		t.Fatalf("distinct spec collided with cache: code=%d id=%s", code, od.ID)
	}
}

// TestServeShardSpellingDedup is the regression for the Shards-default
// dedup bug: a spec submitted with Shards unset and the same spec spelled
// with Shards:DefaultShards run the identical campaign, so the second
// submission must be answered from the first job's cache with zero
// additional simulation — not re-run as a "different" fleet.
func TestServeShardSpellingDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	implicit := tinySpec(300) // Shards: 0 — defaulted
	first, code := postSpec(t, ts, implicit)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	waitStatus(t, ts, first.ID, StatusDone)
	before := s.Stats()
	if before.CampaignsRun != 1 {
		t.Fatalf("campaigns_run = %d after one unique spec, want 1", before.CampaignsRun)
	}

	explicit := tinySpec(300)
	explicit.Shards = fleet.DefaultShards // same campaign, spelled out
	dup, code := postSpec(t, ts, explicit)
	if code != http.StatusOK {
		t.Fatalf("explicit-shards duplicate status = %d, want 200 (cache hit)", code)
	}
	if dup.ID != first.ID || !dup.Deduped || dup.Status != StatusDone {
		t.Fatalf("explicit-shards spec not served from original job: %+v", dup)
	}
	if dup.Agg == nil || dup.Agg.Devices != 300 {
		t.Fatalf("cached answer missing aggregates: %+v", dup.Agg)
	}
	after := s.Stats()
	if after.CampaignsRun != before.CampaignsRun || after.DevicesSimulated != before.DevicesSimulated {
		t.Fatalf("shard spelling re-simulated the fleet: before=%+v after=%+v", before, after)
	}

	// Executor choices are not on the wire: a spec naming one is rejected
	// outright rather than silently deduplicated or run.
	for _, knob := range []string{"tape", "no_fuse", "scalar", "fresh"} {
		var doc map[string]any
		raw, err := json.Marshal(tinySpec(300))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		doc[knob] = true
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec carrying %q: status %d, want 400", knob, resp.StatusCode)
		}
	}
	if got := s.Stats(); got.CampaignsRun != before.CampaignsRun {
		t.Fatalf("executor-knob specs ran a campaign: %+v", got)
	}

	// A genuinely different shard grouping is NOT a duplicate.
	other := tinySpec(300)
	other.Shards = 32
	od, code := postSpec(t, ts, other)
	if code != http.StatusAccepted || od.ID == first.ID {
		t.Fatalf("distinct shard count collided with cache: code=%d id=%s", code, od.ID)
	}
	waitStatus(t, ts, od.ID, StatusDone)
}

// TestServeModelReuseAcrossJobs proves harness.Prepared-style model reuse:
// two jobs over the same model name trigger exactly one model build.
func TestServeModelReuseAcrossJobs(t *testing.T) {
	cache := NewModelCache(harness.PrepareOptions{Seed: 1, Quick: true})
	s := New(cache, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	a := tinySpec(50)
	b := tinySpec(50)
	b.Seed = 99 // distinct spec, same model
	da, _ := postSpec(t, ts, a)
	db, _ := postSpec(t, ts, b)
	waitStatus(t, ts, da.ID, StatusDone)
	waitStatus(t, ts, db.ID, StatusDone)
	if n := cache.Prepares(); n != 1 {
		t.Fatalf("two jobs over one model built it %d times, want 1", n)
	}
	if s.Stats().CampaignsRun != 2 {
		t.Fatalf("campaigns_run = %d, want 2", s.Stats().CampaignsRun)
	}
}

// TestServeCancellation cancels an in-flight job via DELETE and checks it
// stops short.
func TestServeCancellation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	d, code := postSpec(t, ts, tinySpec(50000))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	// Wait until it is actually simulating.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if doc := getJob(t, ts, d.ID); doc.Status == StatusRunning && doc.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+d.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitStatus(t, ts, d.ID, StatusCancelled)
	if fin.Done >= fin.Total {
		t.Fatalf("cancelled job simulated all %d devices", fin.Total)
	}
	// A cancelled job is not reused for dedup — resubmission retries it.
	retry, code := postSpec(t, ts, tinySpec(50000))
	if code != http.StatusAccepted || retry.ID == d.ID {
		t.Fatalf("cancelled job was reused: code=%d id=%s", code, retry.ID)
	}
}

// TestServeProgressStreams checks GET mid-run reports monotonic progress
// and live aggregates before completion.
func TestServeProgressStreams(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	d, _ := postSpec(t, ts, tinySpec(20000))
	sawPartial := false
	deadline := time.Now().Add(30 * time.Second)
	last := 0
	for time.Now().Before(deadline) {
		doc := getJob(t, ts, d.ID)
		if doc.Done < last {
			t.Fatalf("progress went backwards: %d -> %d", last, doc.Done)
		}
		last = doc.Done
		if doc.Status == StatusRunning && doc.Done > 0 && doc.Done < doc.Total && doc.Agg != nil {
			if doc.Agg.Devices == 0 {
				t.Fatal("mid-run aggregates empty despite progress")
			}
			sawPartial = true
		}
		if doc.Status == StatusDone {
			break
		}
	}
	if !sawPartial {
		t.Fatal("never observed streamed mid-run aggregates")
	}
}

// TestServeGracefulShutdown drains: the running job finishes, and new
// submissions are turned away with 503.
func TestServeGracefulShutdown(t *testing.T) {
	cache := NewModelCache(harness.PrepareOptions{Seed: 1, Quick: true})
	s := New(cache, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d, code := postSpec(t, ts, tinySpec(2000))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	// The in-flight job ran to completion during the drain.
	if doc := getJob(t, ts, d.ID); doc.Status != StatusDone || doc.Done != doc.Total {
		t.Fatalf("drained job state: %+v", doc)
	}
	// Post-drain submissions are rejected.
	if _, code := postSpec(t, ts, tinySpec(10)); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining {
		t.Fatal("healthz does not report draining")
	}
}

// TestServeShutdownDeadlineCancels: a drain whose deadline expires cancels
// both the in-flight job and the queued one behind it rather than hanging,
// and freezes their elapsed_s at cancellation.
func TestServeShutdownDeadlineCancels(t *testing.T) {
	cache := NewModelCache(harness.PrepareOptions{Seed: 1, Quick: true})
	s := New(cache, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d, _ := postSpec(t, ts, tinySpec(200000))
	queuedSpec := tinySpec(200000)
	queuedSpec.Seed = 2
	q, code := postSpec(t, ts, queuedSpec)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit status = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if doc := getJob(t, ts, d.ID); doc.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	for _, id := range []string{d.ID, q.ID} {
		doc := getJob(t, ts, id)
		if doc.Status != StatusCancelled {
			t.Fatalf("deadline-expired drain left job %s %q", id, doc.Status)
		}
		// A cancelled job's clock is stopped: elapsed_s must not keep
		// growing after the fact (the runner stamps finished even for jobs
		// it skips).
		time.Sleep(60 * time.Millisecond)
		if again := getJob(t, ts, id); again.Elapsed != doc.Elapsed {
			t.Fatalf("cancelled job %s elapsed still ticking: %v -> %v", id, doc.Elapsed, again.Elapsed)
		}
	}
}

// TestServeConcurrentDoneReads hammers GET /jobs/{id} on a finished job
// from many goroutines. The done readout must be immutable — the summary
// is materialized once at finalization — so under -race this guards
// against quantile readout mutating shared sketch state per request.
func TestServeConcurrentDoneReads(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	d, _ := postSpec(t, ts, tinySpec(200))
	want := waitStatus(t, ts, d.ID, StatusDone)
	wantAgg, err := json.Marshal(want.Agg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(ts.URL + "/jobs/" + d.ID)
				if err != nil {
					t.Error(err)
					return
				}
				var doc jobDoc
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				got, err := json.Marshal(doc.Agg)
				if err != nil {
					t.Error(err)
					return
				}
				if doc.Agg == nil || !bytes.Equal(got, wantAgg) {
					t.Errorf("concurrent read corrupted aggregates: %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServeThroughputCounters: after a campaign completes, /stats reports
// the fleet's cumulative charged-op total and positive ops/sec and
// devices/sec throughput rates, and the HTTP wire form carries the new
// fields. A second identical submission is deduped, so the cumulative
// counters must not move.
func TestServeThroughputCounters(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	d, _ := postSpec(t, ts, tinySpec(200))
	waitStatus(t, ts, d.ID, StatusDone)

	st := s.Stats()
	if st.OpsCharged <= 0 {
		t.Fatalf("OpsCharged = %d after a completed 200-device campaign", st.OpsCharged)
	}
	// Each completed device charges at least one op per inference, so the
	// fleet total must dominate the device count by orders of magnitude.
	if st.OpsCharged < st.DevicesSimulated {
		t.Fatalf("OpsCharged = %d < DevicesSimulated = %d", st.OpsCharged, st.DevicesSimulated)
	}
	if st.BusySeconds <= 0 {
		t.Fatalf("BusySeconds = %v after a completed campaign", st.BusySeconds)
	}
	if st.OpsPerSec <= 0 || st.DevicesPerSec <= 0 {
		t.Fatalf("throughput rates not positive: ops/s=%v dev/s=%v", st.OpsPerSec, st.DevicesPerSec)
	}
	if got := st.OpsPerSec * st.BusySeconds; got < float64(st.OpsCharged)*0.999 || got > float64(st.OpsCharged)*1.001 {
		t.Fatalf("OpsPerSec inconsistent with OpsCharged/BusySeconds: %v * %v = %v, want %d",
			st.OpsPerSec, st.BusySeconds, got, st.OpsCharged)
	}

	// Wire form: GET /stats must expose the counters and rates.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Stats Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stats.OpsCharged != st.OpsCharged {
		t.Fatalf("/stats ops_charged = %d, want %d", doc.Stats.OpsCharged, st.OpsCharged)
	}
	if doc.Stats.OpsPerSec <= 0 || doc.Stats.DevicesPerSec <= 0 {
		t.Fatalf("/stats rates not positive: %+v", doc.Stats)
	}

	// A deduped resubmission answers from the finished job without
	// simulating a device, so work counters must be unchanged.
	if _, code := postSpec(t, ts, tinySpec(200)); code != http.StatusOK {
		t.Fatalf("dedup resubmit status = %d, want 200", code)
	}
	after := s.Stats()
	if after.OpsCharged != st.OpsCharged || after.DevicesSimulated != st.DevicesSimulated {
		t.Fatalf("dedup moved work counters: before %+v after %+v", st, after)
	}
}

// TestServeFinishedJobEviction: with a small retention bound, the oldest
// terminal job is evicted — its id 404s, and resubmitting its spec runs a
// fresh campaign instead of hitting the dedup cache.
func TestServeFinishedJobEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, MaxFinishedJobs: 2})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		spec := tinySpec(50)
		spec.Seed = seed
		d, code := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		waitStatus(t, ts, d.ID, StatusDone)
		ids = append(ids, d.ID)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still served: status %d", resp.StatusCode)
	}
	// The two youngest survive.
	for _, id := range ids[1:] {
		if doc := getJob(t, ts, id); doc.Status != StatusDone {
			t.Fatalf("retained job %s lost: %+v", id, doc)
		}
	}
	// The evicted spec re-runs rather than dedups.
	before := s.Stats().CampaignsRun
	respec := tinySpec(50)
	respec.Seed = 1
	rd, code := postSpec(t, ts, respec)
	if code != http.StatusAccepted || rd.ID == ids[0] {
		t.Fatalf("evicted spec answered from cache: code=%d id=%s", code, rd.ID)
	}
	waitStatus(t, ts, rd.ID, StatusDone)
	if after := s.Stats().CampaignsRun; after != before+1 {
		t.Fatalf("campaigns_run = %d, want %d", after, before+1)
	}
}

// TestServeRejectsBadSpecs exercises validation surface: malformed JSON,
// unknown fields, unknown models, oversized fleets, missing jobs.
func TestServeRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxDevices: 1000})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", code)
	}
	if code := post(`{"bogus_field": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	big, _ := json.Marshal(tinySpec(5000))
	if code := post(string(big)); code != http.StatusBadRequest {
		t.Errorf("oversized fleet: status %d", code)
	}
	bad := tinySpec(10)
	bad.Models = []string{"resnet"}
	bb, _ := json.Marshal(bad)
	if code := post(string(bb)); code != http.StatusBadRequest {
		t.Errorf("unknown model: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d", resp.StatusCode)
	}
}

// TestServeHealthz sanity-checks the liveness endpoint shape.
func TestServeHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var doc struct {
		OK    bool  `json:"ok"`
		Stats Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.OK {
		t.Fatal("healthz not ok")
	}
	if doc.Stats != (Stats{}) {
		t.Fatalf("fresh server has nonzero stats: %+v", doc.Stats)
	}
}

// TestServeQueueFull: with a single-slot queue and a long job occupying
// the runner, further distinct submissions get 503 rather than queueing
// without bound.
func TestServeQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// Long-running job occupies the runner...
	if _, code := postSpec(t, ts, tinySpec(100000)); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// ...second fills the queue slot (runner may have already drained the
	// first from the channel, so allow either outcome for this one)...
	s2 := tinySpec(100000)
	s2.Seed = 2
	_, code2 := postSpec(t, ts, s2)
	if code2 != http.StatusAccepted && code2 != http.StatusServiceUnavailable {
		t.Fatalf("second submit: %d", code2)
	}
	// ...then saturate: within a few distinct submissions the queue must
	// push back with 503.
	got503 := false
	for i := 0; i < 4 && !got503; i++ {
		sp := tinySpec(100000)
		sp.Seed = uint64(10 + i)
		_, code := postSpec(t, ts, sp)
		got503 = code == http.StatusServiceUnavailable
	}
	if !got503 {
		t.Fatal("queue never pushed back with 503")
	}
}

// TestServeStatsEndpoint: /stats rolls up the server counters, the fleet
// provisioning work of finished campaigns, and the model cache's build
// counters — and proves served jobs provision from the cache's prototype
// (pooled restores, no fresh deploys, no campaign-built prototypes).
func TestServeStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	d, code := postSpec(t, ts, tinySpec(64))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitStatus(t, ts, d.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var doc struct {
		Jobs       int        `json:"jobs"`
		Stats      Stats      `json:"stats"`
		ModelCache CacheStats `json:"model_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Jobs != 1 || doc.Stats.CampaignsRun != 1 || doc.Stats.DevicesSimulated != 64 {
		t.Fatalf("stats counters off: %+v", doc)
	}
	p := doc.Stats.Provision
	if p.Restores != 64 {
		t.Fatalf("served campaign did not provision from the pool: %+v", p)
	}
	if p.Prototypes != 0 {
		t.Fatalf("campaign built %d prototypes despite the model cache providing one", p.Prototypes)
	}
	if doc.ModelCache != (CacheStats{Models: 1, Prototypes: 1}) {
		t.Fatalf("model cache counters = %+v", doc.ModelCache)
	}
}
