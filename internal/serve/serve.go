// Package serve is the job-serving front-end over internal/fleet: an
// HTTP/JSON API that accepts fleet-campaign specs, queues them, dedups
// identical specs through their content address (a resubmitted spec is
// answered from the finished or in-flight job without re-simulating a
// single device), streams progress and aggregate statistics while a
// campaign runs, and supports cancellation and graceful drain.
//
//	POST   /jobs      submit a fleet.Spec        -> {id, status, ...}
//	GET    /jobs/{id} progress + aggregates      (streamed while running)
//	DELETE /jobs/{id} cancel a queued/running job
//	GET    /healthz   liveness + counters
//	GET    /stats     counters + model-cache + provisioning detail
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Options configures a Server.
type Options struct {
	// Workers bounds each campaign's simulation fan-out (0 = GOMAXPROCS).
	Workers int
	// MaxDevices rejects jobs larger than this (0 = DefaultMaxDevices).
	MaxDevices int
	// QueueDepth bounds the pending-job queue (0 = 64).
	QueueDepth int
	// MaxFinishedJobs bounds how many terminal jobs are retained for
	// GET/dedup before the oldest are evicted (0 = DefaultMaxFinishedJobs).
	MaxFinishedJobs int
}

// DefaultMaxDevices caps a single job's fleet size.
const DefaultMaxDevices = 1_000_000

// queueFullRetryAfter is the Retry-After, in seconds, of a 503 "job queue
// is full" response.
const queueFullRetryAfter = "1"

// DefaultMaxFinishedJobs is the terminal-job retention bound. A retained
// terminal job costs O(summary) — its campaign's shard aggregates are
// dropped at finalization — so the server's footprint stays bounded no
// matter how many distinct specs a long-lived process serves.
const DefaultMaxFinishedJobs = 1024

// job is one submitted campaign.
type job struct {
	id     string
	hash   string
	spec   fleet.Spec
	cancel context.CancelFunc
	ctx    context.Context

	mu       sync.Mutex
	campaign *fleet.Campaign // nil once the job reaches a terminal state
	status   Status
	// summary is materialized exactly once, by the runner, when the job
	// completes. Sketch quantile readout mutates sketch internals, so the
	// aggregates of a finished campaign must never be read concurrently by
	// response handlers; handlers only ever see this immutable snapshot.
	summary   *fleet.Summary
	done      int // final device count, set at terminal state
	err       error
	dedupHits int64
	submitted time.Time
	finished  time.Time
}

func (j *job) setStatus(st Status) {
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
}

// Server queues and runs fleet jobs. Construct with New, mount Handler on
// an http.Server, and call Shutdown to drain.
type Server struct {
	models ModelSource
	opt    Options

	mu       sync.Mutex
	jobs     map[string]*job
	byHash   map[string]*job
	retired  []*job // terminal jobs in finalization order, oldest first
	queue    chan *job
	draining bool
	idSeq    int64

	runnerDone chan struct{}

	submitted atomic.Int64
	deduped   atomic.Int64
	campaigns atomic.Int64
	devices   atomic.Int64
	ops       atomic.Int64 // charged ops across all completed campaigns
	busyNS    atomic.Int64 // wall time the runner spent inside campaigns

	provMu sync.Mutex
	prov   fleet.ProvisionStats
}

// New returns a Server with its job runner started.
func New(models ModelSource, opt Options) *Server {
	if opt.MaxDevices <= 0 {
		opt.MaxDevices = DefaultMaxDevices
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 64
	}
	if opt.MaxFinishedJobs <= 0 {
		opt.MaxFinishedJobs = DefaultMaxFinishedJobs
	}
	s := &Server{
		models:     models,
		opt:        opt,
		jobs:       make(map[string]*job),
		byHash:     make(map[string]*job),
		queue:      make(chan *job, opt.QueueDepth),
		runnerDone: make(chan struct{}),
	}
	go s.runner()
	return s
}

// runner executes queued jobs one campaign at a time; each campaign
// parallelizes internally across opt.Workers simulation workers.
func (s *Server) runner() {
	defer close(s.runnerDone)
	for j := range s.queue {
		if j.ctx.Err() != nil {
			s.finalize(j, StatusCancelled, nil, nil)
			continue
		}
		j.setStatus(StatusRunning)
		s.campaigns.Add(1)
		start := time.Now()
		res, err := j.campaign.Run(j.ctx, s.opt.Workers)
		s.busyNS.Add(time.Since(start).Nanoseconds())
		switch {
		case err == nil:
			s.finalize(j, StatusDone, res, nil)
		case errors.Is(err, context.Canceled):
			s.finalize(j, StatusCancelled, nil, nil)
		default:
			s.finalize(j, StatusFailed, nil, err)
		}
	}
}

// finalize moves j to a terminal state. The summary is materialized here,
// once, while the runner is the aggregates' sole owner (quantile readout
// mutates sketch internals, so it must never run on shared state), and
// the campaign — 64 shard aggregates' worth of memory — is dropped: a
// retained terminal job costs O(summary).
func (s *Server) finalize(j *job, st Status, res *fleet.Result, err error) {
	var sum *fleet.Summary
	done, _ := j.campaign.Progress()
	if res != nil {
		v := res.Agg.Summary()
		sum, done = &v, res.Done
		s.devices.Add(int64(res.Agg.Devices))
		s.ops.Add(res.Agg.Ops)
		s.provMu.Lock()
		s.prov.Add(res.Provision)
		s.provMu.Unlock()
	}
	j.mu.Lock()
	j.status, j.err, j.summary, j.done = st, err, sum, done
	j.campaign = nil
	if j.finished.IsZero() {
		j.finished = time.Now()
	}
	j.mu.Unlock()
	s.retire(j)
}

// retire records j's finalization order and evicts the oldest retained
// terminal jobs beyond opt.MaxFinishedJobs, so s.jobs/s.byHash stay
// bounded on a long-lived server.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	s.retired = append(s.retired, j)
	for len(s.retired) > s.opt.MaxFinishedJobs {
		old := s.retired[0]
		s.retired = s.retired[1:]
		delete(s.jobs, old.id)
		if s.byHash[old.hash] == old {
			delete(s.byHash, old.hash)
		}
	}
	s.mu.Unlock()
}

// Stats is the server's cumulative counter snapshot. The lifecycle tests
// use it to prove duplicate jobs are answered without re-simulation, and
// the provisioning tests that pooled campaigns restore devices instead of
// re-deploying them.
type Stats struct {
	Submitted        int64 `json:"submitted"`
	Deduped          int64 `json:"deduped"`
	CampaignsRun     int64 `json:"campaigns_run"`
	DevicesSimulated int64 `json:"devices_simulated"`
	// OpsCharged is the cumulative charged-op total across every device
	// the server has simulated; BusySeconds is the wall time the runner
	// spent inside campaigns. Their ratios below are the fleet operator's
	// throughput readout — how much simulated work this server retires
	// per second of campaign time.
	OpsCharged    int64                `json:"ops_charged"`
	BusySeconds   float64              `json:"busy_s"`
	OpsPerSec     float64              `json:"ops_per_sec"`
	DevicesPerSec float64              `json:"devices_per_sec"`
	Provision     fleet.ProvisionStats `json:"provision"`
}

// Stats returns the counter snapshot. Throughput rates divide cumulative
// work by cumulative campaign wall time, so they are lifetime averages
// (zero until the first campaign finishes accruing time).
func (s *Server) Stats() Stats {
	s.provMu.Lock()
	prov := s.prov
	s.provMu.Unlock()
	st := Stats{
		Submitted:        s.submitted.Load(),
		Deduped:          s.deduped.Load(),
		CampaignsRun:     s.campaigns.Load(),
		DevicesSimulated: s.devices.Load(),
		OpsCharged:       s.ops.Load(),
		BusySeconds:      float64(s.busyNS.Load()) / 1e9,
		Provision:        prov,
	}
	if st.BusySeconds > 0 {
		st.OpsPerSec = float64(st.OpsCharged) / st.BusySeconds
		st.DevicesPerSec = float64(st.DevicesSimulated) / st.BusySeconds
	}
	return st
}

// Shutdown drains the server: new submissions are rejected immediately,
// queued and running jobs are given until ctx expires to finish, then
// cancelled. It returns nil on a clean drain, ctx.Err() otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.runnerDone:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-s.runnerDone
		return ctx.Err()
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, draining := len(s.jobs), s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": draining,
		"jobs":     jobs,
		"stats":    s.Stats(),
	})
}

// handleStats serves the observability rollup: the server's cumulative
// counters (including fleet provisioning work — slot deploys, restores
// of simulated executions, page traffic, reused executions) plus the model
// cache's build and execution-table counters when the model source
// exposes them.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	doc := map[string]any{
		"jobs":  jobs,
		"stats": s.Stats(),
	}
	if mc, ok := s.models.(interface{ CacheStats() CacheStats }); ok {
		doc["model_cache"] = mc.CacheStats()
	}
	writeJSON(w, http.StatusOK, doc)
}

// jobDoc is the wire form of a job's state.
type jobDoc struct {
	ID        string         `json:"id"`
	Hash      string         `json:"hash"`
	Status    Status         `json:"status"`
	Deduped   bool           `json:"deduped,omitempty"`
	DedupHits int64          `json:"dedup_hits,omitempty"`
	Done      int            `json:"done"`
	Total     int            `json:"total"`
	Error     string         `json:"error,omitempty"`
	Elapsed   float64        `json:"elapsed_s"`
	Agg       *fleet.Summary `json:"aggregates,omitempty"`
}

// doc renders the job, including streamed mid-campaign aggregates while
// it runs. It is read-only with respect to shared aggregate state: a
// terminal job's summary was materialized once at finalization, and a
// running job's snapshot merges into a fresh, handler-local accumulator.
func (j *job) doc(deduped bool) jobDoc {
	j.mu.Lock()
	st, sum, jerr := j.status, j.summary, j.err
	hits, sub, fin := j.dedupHits, j.submitted, j.finished
	done, campaign := j.done, j.campaign
	j.mu.Unlock()
	if campaign != nil {
		done, _ = campaign.Progress()
	}
	d := jobDoc{
		ID: j.id, Hash: j.hash, Status: st,
		Deduped: deduped, DedupHits: hits,
		Done: done, Total: j.spec.Devices,
	}
	end := time.Now()
	if !fin.IsZero() {
		end = fin
	}
	d.Elapsed = end.Sub(sub).Seconds()
	if jerr != nil {
		d.Error = jerr.Error()
	}
	switch {
	case sum != nil:
		d.Agg = sum
	case st == StatusRunning && campaign != nil:
		if snap, err := campaign.Snapshot(); err == nil {
			live := snap.Agg.Summary()
			d.Agg = &live
		}
	}
	return d
}

// maxSpecBytes caps a POST /jobs body (413 beyond it). A spec with
// fleet.MaxCombinations power classes of a name, kind and capacitor each
// is about a quarter of it.
const maxSpecBytes = 1 << 20

// decodeSpec reads one spec from a request body, rejecting unknown fields.
func decodeSpec(r io.Reader) (fleet.Spec, error) {
	var spec fleet.Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "decoding spec: %v", err)
		return
	}
	if spec.Devices > s.opt.MaxDevices {
		writeErr(w, http.StatusBadRequest, "fleet of %d devices exceeds the %d-device job cap",
			spec.Devices, s.opt.MaxDevices)
		return
	}
	hash := spec.Hash()

	// Fast path: an identical spec already queued, running, or finished is
	// answered from its job — zero re-simulation.
	if d, ok := s.lookupDup(hash); ok {
		writeJSON(w, http.StatusOK, d)
		return
	}

	// Reject drained submissions before resolving models: preparation may
	// train a network for minutes, pointless work for a job that the
	// post-resolve draining re-check would turn away anyway.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Resolve models outside the server lock: a first reference to an
	// evaluation network may train (or hit the GENESIS report cache).
	models, err := registry(s.models, spec.Models)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	campaign, err := fleet.NewCampaign(spec, models)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		hash: hash, spec: spec, campaign: campaign,
		ctx: ctx, cancel: cancel,
		status: StatusQueued, submitted: time.Now(),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Re-check under the lock: a duplicate may have landed while models
	// resolved.
	if dup, ok := s.byHash[hash]; ok && dup.reusable() {
		s.mu.Unlock()
		cancel()
		s.recordDup(dup)
		writeJSON(w, http.StatusOK, dup.doc(true))
		return
	}
	s.idSeq++
	j.id = fmt.Sprintf("job-%d-%s", s.idSeq, hash[:12])
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		// The queue drains as the runner finishes jobs; tell the client
		// when to retry instead of leaving it to poll blindly.
		w.Header().Set("Retry-After", queueFullRetryAfter)
		writeErr(w, http.StatusServiceUnavailable, "job queue is full")
		return
	}
	s.jobs[j.id] = j
	s.byHash[hash] = j
	s.mu.Unlock()
	s.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.doc(false))
}

// reusable reports whether a duplicate submission can be answered from
// this job. Failed and cancelled jobs are not reused — resubmitting one
// retries it.
func (j *job) reusable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusQueued || j.status == StatusRunning || j.status == StatusDone
}

// lookupDup finds a reusable job with this content address.
func (s *Server) lookupDup(hash string) (jobDoc, bool) {
	s.mu.Lock()
	dup, ok := s.byHash[hash]
	s.mu.Unlock()
	if !ok || !dup.reusable() {
		return jobDoc{}, false
	}
	s.recordDup(dup)
	return dup.doc(true), true
}

func (s *Server) recordDup(j *job) {
	s.deduped.Add(1)
	j.mu.Lock()
	j.dedupHits++
	j.mu.Unlock()
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.doc(false))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	j.cancel()
	// A queued job will be skipped by the runner; mark it cancelled now so
	// the response reflects its fate.
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.finished = time.Now()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, j.doc(false))
}
