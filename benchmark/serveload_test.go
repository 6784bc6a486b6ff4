package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeServer answers the job API instantly: every job is done on its
// first GET. The first POST stalls for stall.
func fakeServer(stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	jobs := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		jobs++
		n := jobs
		mu.Unlock()
		if n == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": fmt.Sprintf("job-%d", n), "status": "queued"})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"id": r.PathValue("id"), "status": "done", "aggregates": map[string]int{}})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"stats":       map[string]any{"campaigns_run": jobs, "devices_simulated": jobDevices * jobs},
			"model_cache": map[string]any{"models": 3},
		})
	})
	return httptest.NewServer(mux)
}

// TestOpenLoopTimesFromDue: a stall in the server delays every arrival
// due during it. Open-loop timing counts that wait from each arrival's due
// time, and the generator reports how late it sent them.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n     = 10
		gap   = 20 * time.Millisecond
		stall = 300 * time.Millisecond
	)
	var arr []arrival
	for i := 0; i < n; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * gap, body: []byte("{}"), orig: -1})
	}
	measure := func(stall time.Duration) *phaseOut {
		srv := fakeServer(stall)
		defer srv.Close()
		out := generate(srv.URL, arr, nil)
		if len(out.failures) > 0 {
			t.Fatalf("failures: %v", out.failures)
		}
		if len(out.latS) != n || len(out.lateMS) != n {
			t.Fatalf("%d latencies, %d lateness samples; want %d each", len(out.latS), len(out.lateMS), n)
		}
		return out
	}
	calm, stalled := measure(0), measure(stall)

	// The second arrival was due gap after the first, which held the
	// connection for stall: it went out stall-gap late, and its latency
	// counts that wait.
	wantLate := ms(stall - gap)
	if got := stalled.lateMS[1]; got < wantLate {
		t.Errorf("stalled run: arrival 1 sent %.1f ms late, want >= %.1f", got, wantLate)
	}
	if got := sorted(stalled.lateMS)[n-1]; got < wantLate {
		t.Errorf("stalled run: late_ms max %.1f, want >= %.1f", got, wantLate)
	}
	if got := sorted(calm.lateMS)[n-1]; got >= wantLate/2 {
		t.Errorf("calm run: late_ms max %.1f, want well under %.1f", got, wantLate)
	}
	if m, c := median(stalled.latS), median(calm.latS); m < c+0.1 {
		t.Errorf("median latency %.3f s stalled vs %.3f s calm: the stall did not reach later arrivals", m, c)
	}
}

// TestScheduleShape: a phase has round(rate × seconds) arrivals in due
// order, one in five re-POSTs an earlier new spec, and the n-th new spec
// does not depend on the phase length.
func TestScheduleShape(t *testing.T) {
	long, short := schedule(7, 10, 5), schedule(7, 4, 5)
	if len(long) != 50 || len(short) != 20 {
		t.Fatalf("got %d and %d arrivals, want 50 and 20", len(long), len(short))
	}
	dups := 0
	for i, a := range long {
		if i > 0 && a.due < long[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if a.orig >= 0 {
			dups++
			if a.orig >= i || long[a.orig].orig != -1 || string(a.body) != string(long[a.orig].body) {
				t.Fatalf("arrival %d re-POSTs arrival %d, which is not an earlier new spec", i, a.orig)
			}
		}
	}
	if dups != 10 {
		t.Errorf("%d re-POSTs of 50, want 10", dups)
	}
	newSpecs := func(arr []arrival) []string {
		var out []string
		for _, a := range arr {
			if a.orig < 0 {
				out = append(out, string(a.body))
			}
		}
		return out
	}
	l, s := newSpecs(long), newSpecs(short)
	for i := range s {
		if s[i] != l[i] {
			t.Fatalf("new spec %d differs between phase lengths", i)
		}
	}
}
