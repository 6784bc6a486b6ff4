package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/serve"
)

// jobDevices is one device per fleet cell, so every served job touches
// every (net, runtime, power) combination once.
const jobDevices = 27

// pollEvery is the poller's period: it bounds how late a finished job is
// noticed, which is part of the latency a client polling the API sees.
const pollEvery = 5 * time.Millisecond

// dupShare is the share of arrivals that re-POST an earlier spec.
const dupShare = 0.2

// arrival is one scheduled POST of the open-loop load.
type arrival struct {
	due  time.Duration // offset from the start of the phase
	body []byte        // spec JSON
	orig int           // arrival whose spec this re-POSTs; -1 for a new spec
}

// schedule draws a phase's arrivals: round(rate × seconds) POSTs at
// seeded Poisson times (the arrival count is fixed, so the times are
// sorted uniform draws), one in five re-POSTing a random earlier new spec.
// New specs come from their own stream, so the n-th new spec of a seed is
// the same whatever the phase length.
func schedule(seed uint64, seconds, rate float64) []arrival {
	n := max(1, int(math.Round(rate*seconds)))
	times := rand.New(rand.NewPCG(seed, 1))
	kinds := rand.New(rand.NewPCG(seed, 2))
	specs := rand.New(rand.NewPCG(seed, 3))

	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(times.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })

	dup := make([]bool, n)
	if n > 1 {
		for _, i := range kinds.Perm(n - 1)[:int(math.Round(dupShare*float64(n)))] {
			dup[i+1] = true // the first arrival is always a new spec
		}
	}
	out := make([]arrival, n)
	var news []int
	for i := range out {
		out[i] = arrival{due: dues[i], orig: -1}
		if dup[i] {
			o := news[kinds.IntN(len(news))]
			out[i].orig, out[i].body = o, out[o].body
			continue
		}
		news = append(news, i)
		out[i].body = mustJSON(fleetSpec(jobDevices, specs.Uint64()))
	}
	return out
}

// fleetSpec is the knob-free campaign over the fleet cell grid: no
// executor field is set, so it runs what a default job runs.
func fleetSpec(devices int, seed uint64) fleet.Spec {
	powers := map[string]energy.SystemSpec{
		"cont":        {Kind: "cont"},
		"rf-100uF":    {Kind: "const", CapFarads: 100e-6},
		"stoch-100uF": {Kind: "stoch", CapFarads: 100e-6},
	}
	spec := fleet.Spec{Devices: devices, Seed: seed, Models: harness.Networks(), Runtimes: fleetRuntimes}
	for _, name := range fleetPowers {
		spec.Powers = append(spec.Powers, fleet.PowerClass{Name: name, SystemSpec: powers[name]})
	}
	return spec
}

// phaseOut is what the load generator observed in one open-loop phase.
type phaseOut struct {
	arrivals               int
	latS                   []float64 // new jobs: due time to the first poll seeing done
	elapsedS               []float64 // the same jobs' elapsed_s: queued to finished, server clock
	submitMS               []float64 // POSTs of new specs
	dedupMS                []float64 // re-POSTs
	getMS                  []float64 // every poll
	lateMS                 []float64 // send time minus due time, every arrival
	queueMS                []float64 // new jobs: reconstructed queue wait
	runMS                  []float64 // new jobs: reconstructed run time
	backlogMax, backlogEnd int
	stats                  serve.Stats
	models                 int64     // model_cache.models from /stats
	phaseS                 float64   // first due time to the last job done
	jobs                   []doneJob // new jobs in submission order
	failures               []string
}

// doneJob is one new job as the load generator last saw it.
type doneJob struct {
	id      string
	body    []byte
	hash    string
	summary []byte // the done document's aggregates, compacted
}

// jobDoc is the subset of the server's job document the generator reads.
type jobDoc struct {
	ID      string          `json:"id"`
	Hash    string          `json:"hash"`
	Status  string          `json:"status"`
	Deduped bool            `json:"deduped"`
	Elapsed float64         `json:"elapsed_s"`
	Error   string          `json:"error"`
	Agg     json.RawMessage `json:"aggregates"`
}

// pending is a new job the poller still waits on.
type pending struct {
	k        int // index among new jobs
	id       string
	due      time.Time
	accepted time.Time // POST answered: the server queued it just before
	seen     time.Time // first poll that saw it done
	elapsed  float64   // the done document's elapsed_s
}

// Span tracks: the submitter's POSTs, the poller's GETs, and one track
// per served job from jobTrack on, since jobs overlap while they queue.
const (
	postTrack = 2
	getTrack  = 3
	jobTrack  = 10
)

// runPhase serves one open-loop phase against a fresh server over the
// shared model cache: a submitter sends each arrival at its due time on
// one connection, and one poller GETs every outstanding job each
// pollEvery on the other. Latency counts from the due time, so a stall
// delays every later arrival's clock too.
func runPhase(cache *serve.ModelCache, arr []arrival, tr *tracer) (*phaseOut, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(cache, serve.Options{Workers: simWorkers})
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	out := generate(base, arr, tr)
	var runErr error

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		runErr = errors.Join(runErr, err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		runErr = errors.Join(runErr, err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		runErr = errors.Join(runErr, err)
	}
	return out, runErr
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// generate drives the phase's load and checks what the server answered.
func generate(base string, arr []arrival, tr *tracer) *phaseOut {
	out := &phaseOut{arrivals: len(arr)}
	submitC, pollC := newClient(), newClient() // two connections in all
	defer submitC.CloseIdleConnections()
	defer pollC.CloseIdleConnections()

	var (
		mu       sync.Mutex
		waiting  []*pending // new jobs not yet seen ended, in submission order
		sentAll  bool
		ids      = make([]string, len(arr)) // job id each arrival was answered with
		failures []string
	)
	fail := func(format string, a ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, a...))
		mu.Unlock()
	}

	start := time.Now()
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i, a := range arr {
			due := start.Add(a.due)
			time.Sleep(time.Until(due))
			sent := time.Now()
			out.lateMS = append(out.lateMS, ms(sent.Sub(due)))
			sp := tr.start("loadgen.POST /jobs", nil, postTrack)
			var doc jobDoc
			code, err := call(submitC, http.MethodPost, base+"/jobs", a.body, &doc)
			sp.end()
			accepted := time.Now()
			took := ms(accepted.Sub(sent))
			if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
				fail("arrival %d: POST answered %d: %v %s", i, code, err, doc.Error)
				continue
			}
			ids[i] = doc.ID
			if a.orig >= 0 {
				out.dedupMS = append(out.dedupMS, took)
				if !doc.Deduped || doc.ID != ids[a.orig] {
					fail("arrival %d: re-POST of arrival %d answered id %s deduped=%v, want %s deduped=true",
						i, a.orig, doc.ID, doc.Deduped, ids[a.orig])
				}
				continue
			}
			out.submitMS = append(out.submitMS, took)
			if code != http.StatusAccepted || doc.Deduped {
				fail("arrival %d: new spec answered %d deduped=%v", i, code, doc.Deduped)
				continue
			}
			mu.Lock()
			waiting = append(waiting, &pending{k: len(out.jobs), id: doc.ID, due: due, accepted: accepted})
			out.jobs = append(out.jobs, doneJob{id: doc.ID, body: a.body, hash: doc.Hash})
			out.backlogMax = max(out.backlogMax, len(waiting))
			mu.Unlock()
		}
		mu.Lock()
		sentAll = true
		out.backlogEnd = len(waiting)
		mu.Unlock()
	}()

	// The poller runs on this goroutine until every new job has ended.
	deadline := start.Add(arr[len(arr)-1].due + time.Minute)
	var finished []*pending
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		<-tick.C
		mu.Lock()
		batch, done := append([]*pending(nil), waiting...), sentAll && len(waiting) == 0
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			fail("%d jobs still outstanding a minute after the last arrival", len(batch))
			break
		}
		for _, p := range batch {
			id := p.id
			t0 := time.Now()
			sp := tr.start("loadgen.GET /jobs/{id}", nil, getTrack)
			var doc jobDoc
			code, err := call(pollC, http.MethodGet, base+"/jobs/"+id, nil, &doc)
			sp.end()
			now := time.Now()
			out.getMS = append(out.getMS, ms(now.Sub(t0)))
			if err != nil || code != http.StatusOK {
				fail("GET %s answered %d: %v", id, code, err)
				continue
			}
			switch doc.Status {
			case "queued", "running":
				continue
			case "done":
				out.latS = append(out.latS, now.Sub(p.due).Seconds())
				p.elapsed, p.seen = doc.Elapsed, now
				out.elapsedS = append(out.elapsedS, doc.Elapsed)
				var sum bytes.Buffer
				if err := json.Compact(&sum, doc.Agg); err != nil {
					fail("job %s: aggregates: %v", id, err)
				}
				mu.Lock()
				out.jobs[p.k].summary = sum.Bytes()
				mu.Unlock()
				finished = append(finished, p)
			default:
				fail("job %s ended %s: %s", id, doc.Status, doc.Error)
			}
			mu.Lock()
			for i, w := range waiting {
				if w == p {
					waiting = append(waiting[:i], waiting[i+1:]...)
					break
				}
			}
			mu.Unlock()
		}
	}
	<-submitted
	out.phaseS = time.Since(start).Seconds()

	// The server runs one campaign at a time in submission order, so each
	// job starts when it was queued or when its predecessor finished,
	// whichever is later; elapsed_s (queued to finished, server clock)
	// then splits its time into queue wait and run.
	sort.Slice(finished, func(i, j int) bool { return finished[i].k < finished[j].k })
	var prevEnd time.Time
	for _, p := range finished {
		end := p.accepted.Add(time.Duration(p.elapsed * float64(time.Second)))
		begin := p.accepted
		if prevEnd.After(begin) {
			begin = prevEnd
		}
		if end.Before(begin) {
			end = begin
		}
		prevEnd = end
		out.queueMS = append(out.queueMS, ms(begin.Sub(p.accepted)))
		out.runMS = append(out.runMS, ms(end.Sub(begin)))
		id, track := out.jobs[p.k].id, jobTrack+p.k
		job := tr.add("serve.job", 0, track, id, p.due, p.seen)
		tr.add("serve.queue_wait", job, track, id, p.accepted, begin)
		tr.add("serve.run", job, track, id, begin, end)
	}

	var st struct {
		Stats      serve.Stats      `json:"stats"`
		ModelCache serve.CacheStats `json:"model_cache"`
	}
	if code, err := call(pollC, http.MethodGet, base+"/stats", nil, &st); err != nil || code != http.StatusOK {
		fail("GET /stats answered %d: %v", code, err)
	}
	out.stats, out.models = st.Stats, st.ModelCache.Models
	out.failures = append(failures, out.checkStats()...)
	return out
}

// checkStats holds the server's own counters to what the generator saw:
// one campaign and jobDevices devices per new job, no re-simulation for
// re-POSTs, and exactly the three evaluation networks in the model cache.
func (o *phaseOut) checkStats() []string {
	var fs []string
	nNew := int64(len(o.jobs))
	if o.stats.CampaignsRun != nNew {
		fs = append(fs, fmt.Sprintf("/stats campaigns_run %d, want %d new jobs", o.stats.CampaignsRun, nNew))
	}
	if o.stats.DevicesSimulated != jobDevices*nNew {
		fs = append(fs, fmt.Sprintf("/stats devices_simulated %d, want %d", o.stats.DevicesSimulated, jobDevices*nNew))
	}
	if o.models != 3 {
		fs = append(fs, fmt.Sprintf("/stats model_cache.models %d, want 3", o.models))
	}
	if len(o.latS) != len(o.jobs) {
		fs = append(fs, fmt.Sprintf("%d of %d new jobs ended done", len(o.latS), len(o.jobs)))
	}
	return fs
}

// call sends one request and decodes the JSON answer into v.
func call(c *http.Client, method, url string, body []byte, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic("benchmark: value does not marshal: " + err.Error())
	}
	return buf
}
