// Package exec is the copy runtime shared by all three engines: the filter
// model (Filter, Ctx), the work cycle that drives every transparent copy
// through Init → Process → Finalize (Runtime, Copy), and the stream-writer
// path between "a filter produced a buffer" and "the buffer is on a queue
// or a wire" — writer-policy construction from TargetInfo (RR/WRR/DD, see
// policy.go), the demand-driven unacked sliding window and ack coalescing,
// end-of-work countdowns, per-target delivery stats, and the internal/obs
// buffer-lifecycle events.
//
// An engine is this runtime plus two seams: a Clock (wall time in
// internal/core and internal/dist, a sim kernel's virtual time in
// internal/simrt) and, for copy sets on other hosts, a Remote with its
// inbound twin (internal/dist's wire). Everything else is implemented once
// and verified once (see the cross-engine equivalence test).
package exec

import (
	"sync"

	"datacutter/internal/obs"
)

// Buffer is the unit of data flowing through a stream: an opaque payload
// plus its size in bytes for accounting and simulation.
type Buffer struct {
	Payload any
	Size    int
}

// Port delivers one picked buffer to a target copy set: the half of a
// stream-writer path after the policy pick, window update and pick trace
// event. The runtime's implementation (Copy's outputs) enqueues on the
// target's queue or hands the buffer to the engine's Remote.
//
// ackEvery is the consumer-side acknowledgment contract for this buffer:
// 0 means the policy wants no acks, k >= 1 means the consumer must
// acknowledge every k-th buffer it dequeues (coalesced via Coalescer).
// Deliver returns ErrCancelled when the run is being torn down; the
// StreamWriter then reports the buffer as undelivered (no stats, no count).
type Port interface {
	Deliver(target int, b Buffer, ackEvery int) error
}

// AckSource drains consumer acknowledgments on the producer side. TryAck
// never blocks; it returns one coalesced acknowledgment (target index and
// buffer count) or ok=false when none are pending. The StreamWriter drains
// it fully at each Write, which is exactly when the window counts are
// read — acks arriving between writes cannot influence a pick anyway.
type AckSource interface {
	TryAck() (target, n int, ok bool)
}

// AckChan is the wall clock's AckQueue: a buffered channel of (target,
// count) acknowledgments that consumers send into and one producer copy
// drains. Capacity must cover the worst-case in-flight acknowledgment count
// (see AckCap) so the runtime's Offer never sheds a local consumer's ack.
type AckChan chan [2]int

// NewAckChan returns an AckChan with the given capacity.
func NewAckChan(capacity int) AckChan { return make(AckChan, capacity) }

// Offer records the acknowledgment if there is room and drops it
// otherwise, reporting whether it was accepted. The drop path exists for
// dist's receive loop, where a faulty peer must not be able to wedge the
// worker by overflowing the window bookkeeping.
func (c AckChan) Offer(target, n int) bool {
	select {
	case c <- [2]int{target, n}:
		return true
	default:
		return false
	}
}

// TryAck implements AckSource.
func (c AckChan) TryAck() (target, n int, ok bool) {
	select {
	case a := <-c:
		return a[0], a[1], true
	default:
		return 0, 0, false
	}
}

// AckSeq is the virtual clock's AckQueue: a plain slice, safe because the
// sim kernel runs one process at a time and acknowledging processes and the
// producer never interleave within a step.
type AckSeq struct {
	pending [][2]int
}

// Offer appends n acknowledged buffers for target; an AckSeq is unbounded,
// so it always accepts.
func (s *AckSeq) Offer(target, n int) bool {
	s.pending = append(s.pending, [2]int{target, n})
	return true
}

// TryAck implements AckSource.
func (s *AckSeq) TryAck() (target, n int, ok bool) {
	if len(s.pending) == 0 {
		return 0, 0, false
	}
	a := s.pending[0]
	s.pending = s.pending[1:]
	if len(s.pending) == 0 {
		s.pending = nil
	}
	return a[0], a[1], true
}

// AckCap returns the ack-channel capacity guaranteeing consumer-side acks
// never block: one slot per buffer that can be in flight toward any target
// (its queue capacity plus one per consumer copy holding a dequeued buffer)
// plus slack for acks drained but not yet applied.
func AckCap(targets []TargetInfo, queueCap int) int {
	capacity := 8
	for _, t := range targets {
		c := t.Copies
		if c < 1 {
			c = 1
		}
		capacity += queueCap + c
	}
	return capacity
}

// Meta identifies a producer copy's stream writer for observability. Obs
// may be nil, disabling pick events.
type Meta struct {
	Obs    *obs.Observer
	Filter string // producer filter name
	Copy   int    // producer global copy index
	Host   string // producer host
	UOW    int    // current unit-of-work index
}

// StreamWriter is the shared per-(producer copy, stream) write path: it
// drains acknowledgments into the unacked sliding window, asks the policy
// writer to pick a target copy set, emits the pick trace event, hands the
// buffer to the engine Port, and counts the delivery. One StreamWriter is
// single-producer state — the runtime creates one per producer copy per
// stream and per unit of work.
//
// The target set and its copy counts are fixed for the writer's lifetime:
// copy-set membership changes only at work-cycle boundaries, where the
// runtime builds fresh writers.
type StreamWriter struct {
	stream   string
	hosts    []string // target i's host
	w        Writer
	acks     AckSource
	ackEvery int
	counts   *Counts
	port     Port
	meta     Meta

	mu      sync.Mutex // guards the window and w's policy state
	unacked []int
}

// NewStreamWriter builds the write path for one stream: policy writer from
// the targets, window sized to match, coalescing factor from the policy.
// counts may be shared across the producer copies of one stream (their
// deliveries tally into one per-target total). Bind an AckSource with
// BindAckSource when WantsAcks reports true.
func NewStreamWriter(stream string, p Policy, targets []TargetInfo, port Port, counts *Counts, meta Meta) *StreamWriter {
	w := p.NewWriter(targets)
	sw := &StreamWriter{
		stream:  stream,
		hosts:   make([]string, len(targets)),
		w:       w,
		unacked: make([]int, len(targets)),
		counts:  counts,
		port:    port,
		meta:    meta,
	}
	for i, t := range targets {
		sw.hosts[i] = t.Host
	}
	if w.WantsAcks() {
		sw.ackEvery = AckBatchOf(w)
	}
	return sw
}

// WantsAcks reports whether the policy needs the consumer-side ack path.
func (sw *StreamWriter) WantsAcks() bool { return sw.w.WantsAcks() }

// AckEvery returns the consumer acknowledgment contract: 0 when the policy
// wants no acks, otherwise the coalescing factor (1 = ack every buffer).
func (sw *StreamWriter) AckEvery() int { return sw.ackEvery }

// BindAckSource attaches the engine's ack path. Required before Write when
// WantsAcks is true.
func (sw *StreamWriter) BindAckSource(src AckSource) { sw.acks = src }

// Write sends one buffer: drain pending acks into the window, pick a
// target, deliver, count. The window is incremented at pick time — before
// the Port runs — so a policy never sees a buffer it already placed as
// absent from the window while the transport is still moving it. On a
// Deliver error the buffer is uncounted; the window deliberately keeps the
// increment, since a failed Deliver only happens during teardown when no
// further picks occur.
func (sw *StreamWriter) Write(b Buffer) error {
	sw.mu.Lock()
	if sw.acks != nil {
		for {
			target, n, ok := sw.acks.TryAck()
			if !ok {
				break
			}
			sw.unacked[target] -= n
		}
	}
	idx := sw.w.Pick(sw.unacked)
	if sw.ackEvery > 0 {
		sw.unacked[idx]++
	}
	sw.mu.Unlock()
	if sw.meta.Obs != nil {
		sw.meta.Obs.Emit(obs.Event{
			Kind: obs.KindPick, Filter: sw.meta.Filter, Copy: sw.meta.Copy,
			Host: sw.meta.Host, Stream: sw.stream, Target: sw.hosts[idx],
			UOW: sw.meta.UOW,
		})
	}
	if err := sw.port.Deliver(idx, b, sw.ackEvery); err != nil {
		return err
	}
	if sw.counts != nil {
		sw.counts.Inc(idx)
	}
	return nil
}

// Unacked returns a copy of the sliding window in target order, for tests
// and debugging.
func (sw *StreamWriter) Unacked() []int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]int, len(sw.unacked))
	copy(out, sw.unacked)
	return out
}

// Coalescer batches consumer-side acknowledgments: Ack counts one dequeued
// buffer toward key and invokes send once every `every` buffers; Flush
// sends whatever remains at end-of-work so DD windows drain even when the
// buffer count is not a multiple of the batch factor. K identifies the
// producer-side window the ack belongs to.
type Coalescer[K comparable] struct {
	pending map[K]int
	send    func(key K, n int)
}

// NewCoalescer returns a Coalescer delivering batches through send.
func NewCoalescer[K comparable](send func(key K, n int)) *Coalescer[K] {
	return &Coalescer[K]{pending: make(map[K]int), send: send}
}

// Ack records one consumed buffer for key, sending a coalesced
// acknowledgment once `every` are pending.
func (c *Coalescer[K]) Ack(key K, every int) {
	c.pending[key]++
	if c.pending[key] >= every {
		n := c.pending[key]
		delete(c.pending, key)
		c.send(key, n)
	}
}

// Flush sends all residual partial batches. Call at end-of-work.
func (c *Coalescer[K]) Flush() {
	for key, n := range c.pending {
		delete(c.pending, key)
		c.send(key, n)
	}
}

// Pending returns the number of keys holding a partial batch.
func (c *Coalescer[K]) Pending() int { return len(c.pending) }
