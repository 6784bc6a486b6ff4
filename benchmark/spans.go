package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory: one per call the benchmark makes into a
// layer's public API, with its parent span and, for serve, the job id.
// A nil *tracer records nothing, so untraced reps run the same code.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	ID, Parent int // Parent is 0 for a root span
	Name       string
	Track      int // Chrome thread id: spans on one track nest
	Job        string
	Start, End time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is an unfinished span; close it with end.
type open struct {
	t *tracer
	s span
}

// start opens a span named name under parent (nil for a root) on the
// given track.
func (t *tracer) start(name string, parent *open, track int) *open {
	if t == nil {
		return nil
	}
	o := &open{t: t, s: span{Name: name, Track: track, Start: time.Since(t.origin)}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	t.mu.Lock()
	o.s.ID = len(t.spans) + 1
	t.spans = append(t.spans, span{}) // reserve the id; filled by end
	t.mu.Unlock()
	return o
}

// end closes the span and records it.
func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.origin)
	o.t.mu.Lock()
	o.t.spans[o.s.ID-1] = o.s
	o.t.mu.Unlock()
}

// add records an already-measured span under the span with id parent (0
// for a root) and returns its id. It serves intervals the benchmark
// observes rather than brackets: a served job from its due time, and its
// reconstructed queue wait and run.
func (t *tracer) add(name string, parent, track int, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Track: track, Job: job,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// spanTotals is one span name's aggregate: how many, total time, and self
// time (the span minus the part of its interval its children cover).
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// totals aggregates the recorded spans by name, largest self time first.
func (t *tracer) totals() []spanTotals {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	spans = slices.DeleteFunc(spans, func(s span) bool { return s.ID == 0 }) // never ended
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := make(map[string]*spanTotals)
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotals{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += ms(d)
		st.SelfMS += ms(d - covered(s, kids[s.ID]))
	}
	out := make([]spanTotals, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of s's interval the union of kids covers;
// concurrent children overlap, so their durations cannot simply be summed.
func covered(s span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing load.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID == 0 {
			continue // never ended
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Job != "" {
			args["job"] = s.Job
		}
		events = append(events, event{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.Track, Args: args,
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
