// Package obs is the unified observability subsystem for the DataCutter
// engines: a lock-cheap metrics registry (counters, gauges, streaming
// histograms), structured buffer-lifecycle trace events emitted through a
// pluggable Sink, and a live HTTP debug endpoint.
//
// All three engines (internal/core, internal/simrt, internal/dist) emit the
// same Event schema, so one tooling path — the JSONL dump, the in-memory
// ring, or the Chrome trace_event export viewable in Perfetto — explains a
// run on any of them. A Clock abstraction keeps the time domain honest: the
// simulated engine stamps events in virtual seconds, the real and
// distributed engines in wall seconds.
//
// Observability is opt-in and designed to cost nothing when off: every
// engine holds a *Observer that is nil when disabled, and all Observer
// methods are nil-receiver safe, so the hot-path cost of a disabled
// observer is a single pointer comparison (no allocation, no time syscall).
package obs

import (
	"sync/atomic"
	"time"
)

// Kind identifies a buffer-lifecycle trace event.
type Kind uint8

// Event kinds. Together they cover a buffer's life: a producer Picks a
// target copy set, Sends it (wire transfer on the simulated/distributed
// engines), the buffer is Enqueued on the consumer's copy-set queue, and —
// under demand-driven policies — the consumer Acks it as processing begins.
// ProcessStart/ProcessEnd bracket one filter copy's Process call for a unit
// of work; StallStart/StallEnd bracket time a copy spends blocked on a full
// or empty stream queue (Note says which side: "read" or "write").
// HostDown/UOWRetry are failure-model events from the distributed
// coordinator: a host declared dead (Note names it) and a unit of work
// re-dispatched on a shrunk placement.
// ScaleUp/ScaleDown are elasticity events (internal/elastic): copies added
// to or retired from a filter's copy set at a work-cycle boundary (Filter
// and Host name the set, Copy carries the new copy count, Note the reason).
// Prune is a storage-tier pushdown event (internal/dataset): one predicate
// evaluation over a chunk list, with N carrying the pruned-chunk count,
// Bytes the chunk bytes that will never be read, UOW the timestep, and
// Note the predicate.
const (
	KindEnqueue Kind = iota + 1
	KindPick
	KindSend
	KindAck
	KindProcessStart
	KindProcessEnd
	KindStallStart
	KindStallEnd
	KindHostDown
	KindUOWRetry
	KindScaleUp
	KindScaleDown
	KindPrune
)

var kindNames = [...]string{
	KindEnqueue:      "enqueue",
	KindPick:         "pick",
	KindSend:         "send",
	KindAck:          "ack",
	KindProcessStart: "process-start",
	KindProcessEnd:   "process-end",
	KindStallStart:   "stall-start",
	KindStallEnd:     "stall-end",
	KindHostDown:     "host-down",
	KindUOWRetry:     "uow-retry",
	KindScaleUp:      "scale-up",
	KindScaleDown:    "scale-down",
	KindPrune:        "prune",
}

// String returns the event kind's schema name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured trace record. Not every field is meaningful for
// every kind; unused fields are zero and omitted from JSON encodings.
type Event struct {
	// T is the timestamp in seconds in the emitting engine's time domain
	// (virtual seconds on the simulated engine, wall seconds since the
	// observer's epoch otherwise). Stamped by Observer.Emit.
	T    float64 `json:"t"`
	Kind Kind    `json:"k"`
	// Filter / Copy / Host identify the filter copy the event belongs to.
	Filter string `json:"f,omitempty"`
	Copy   int    `json:"c"`
	Host   string `json:"h,omitempty"`
	// Stream is the logical stream a buffer event concerns.
	Stream string `json:"s,omitempty"`
	// Target is the destination copy-set host for pick/send/enqueue.
	Target string `json:"tg,omitempty"`
	// Bytes is the buffer payload size for send/enqueue.
	Bytes int `json:"b,omitempty"`
	// N is the coalesced message count for batched acknowledgments.
	N int `json:"n,omitempty"`
	// UOW is the unit-of-work index.
	UOW int `json:"u"`
	// Note carries kind-specific detail ("read"/"write" for stalls).
	Note string `json:"note,omitempty"`
}

// Clock supplies event timestamps in seconds. Engines bind the clock to
// their time domain before a run: wall time for the real and distributed
// engines, the simulation kernel's virtual time for internal/simrt.
type Clock interface {
	Now() float64
}

// ClockFunc adapts a function to a Clock (how internal/simrt wraps its
// kernel without obs importing the simulation packages).
type ClockFunc func() float64

// Now implements Clock.
func (f ClockFunc) Now() float64 { return f() }

type wallClock struct{ epoch time.Time }

func (w wallClock) Now() float64 { return time.Since(w.epoch).Seconds() }

// NewWallClock returns a Clock reporting wall seconds since now.
func NewWallClock() Clock { return wallClock{epoch: time.Now()} }

// Observer bundles a trace sink, a metrics registry, and a clock — the
// handle an engine holds. A nil *Observer is the disabled state: every
// method is nil-receiver safe and returns immediately, so instrumented hot
// paths cost one pointer comparison when observability is off.
type Observer struct {
	sink  Sink
	reg   *Registry
	clock atomic.Pointer[Clock]
}

// New creates an Observer around a sink (nil for metrics-only observers)
// and a registry (nil allocates a fresh one). The clock defaults to wall
// seconds since New; engines rebind it with SetClock.
func New(sink Sink, reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{sink: sink, reg: reg}
	c := NewWallClock()
	o.clock.Store(&c)
	return o
}

// Registry returns the observer's metrics registry (nil observer: nil).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// SetClock rebinds the observer's time domain. Engines call it at the start
// of a run (e.g. the simulated engine installs its kernel's virtual clock).
func (o *Observer) SetClock(c Clock) {
	if o == nil || c == nil {
		return
	}
	o.clock.Store(&c)
}

// Now returns the current time in the observer's domain (0 when nil).
func (o *Observer) Now() float64 {
	if o == nil {
		return 0
	}
	return (*o.clock.Load()).Now()
}

// Emit stamps the event with the observer's clock and hands it to the sink.
// Safe on a nil observer and with a nil sink (both no-ops).
func (o *Observer) Emit(e Event) {
	if o == nil || o.sink == nil {
		return
	}
	e.T = (*o.clock.Load()).Now()
	o.sink.Emit(e)
}

// EmitAt is Emit with an explicit timestamp, for engines that detect a span
// after the fact (the simulated engine compares virtual time around a
// blocking call and back-stamps the stall pair). Events in a sink are in
// emission order; timestamps, not order, are authoritative.
func (o *Observer) EmitAt(t float64, e Event) {
	if o == nil || o.sink == nil {
		return
	}
	e.T = t
	o.sink.Emit(e)
}

// Flush flushes the sink (writes the Chrome trace file footer, drains
// buffered JSONL). Call once at the end of a run.
func (o *Observer) Flush() error {
	if o == nil || o.sink == nil {
		return nil
	}
	return o.sink.Flush()
}
