package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the bench made into a layer. Spans live in memory
// until the run ends (choosing-metrics §4); tracing inside the engines is a
// later issue, so every span here is recorded from outside, around a public
// function of the layer named in Layer.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
	Frame  int // frame / job id shared by all spans of one request
}

// tracer collects spans. A nil *tracer is the "tracing off" state: begin
// and end are no-ops, so measured runs pay nothing for the instrument.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (−1 when tracing is off).
func (t *tracer) begin(name, layer string, parent, frame int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Frame: frame})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose endpoints were measured elsewhere (a job's
// server-side timestamps, a frame's Stats.PerUOWSeconds entry).
func (t *tracer) add(name, layer string, start, end time.Time, parent, frame int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Frame: frame})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover (choosing-metrics §4). Children of one parent are assumed
// not to overlap each other, which holds for everything the bench records:
// each parent's children are issued by one goroutine in sequence.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, one
// track per frame id.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Frame,
			Args: map[string]int{"id": i, "parent": s.Parent, "frame": s.Frame},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
