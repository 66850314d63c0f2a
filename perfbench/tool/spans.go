package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are seconds
// since the traced run began; Parent is the ID of the span that caused
// this one (0 for the root).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
}

// tracer keeps spans in memory until the run ends; safe for concurrent
// use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// reserve allocates an ID for a span that finishes later (a parent
// whose children are recorded first); finish fills it in.
func (t *tracer) reserve(name string, parent int) int {
	return t.add(name, t.t0, t.t0, parent)
}

func (t *tracer) finish(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Seconds()
	t.spans[id-1].End = end.Sub(t.t0).Seconds()
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations is a sample of timings with order statistics.
type durations []time.Duration

// quantile returns the q-quantile (nearest rank) of the sample, 0 when
// empty.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// time runs fn under a span and returns its duration.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, start, end, parent)
	return end.Sub(start)
}

// timeN runs fn reps times, each under a span, and returns each call's
// duration.
func (t *tracer) timeN(name string, parent, reps int, fn func()) durations {
	out := make(durations, reps)
	for i := range out {
		out[i] = t.time(name, parent, fn)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
