package exec

import (
	"sync"
	"time"

	"datacutter/internal/sim"
)

// Clock is the time-and-blocking seam of the copy runtime: what "now" is,
// how a unit of work's copy bodies get their threads of control, and the
// bounded queue a copy set shares. There are two implementations — Wall
// (goroutines, Go channels, time.Now) and Virtual (sim.Kernel processes,
// sim.Chan, kernel time) — and a unit test can substitute either. A Clock
// that also models what work and transfers cost in its time domain
// implements Cost (internal/simrt's does).
type Clock interface {
	// Now is seconds in the clock's domain; it doubles as an obs.Clock.
	Now() float64
	// Run gives each of n bodies its own thread of control, in index
	// order, and returns when all have finished. name labels body i (a
	// kernel process name). The error is the clock's own failure (a
	// simulated deadlock), never a body's.
	Run(n int, name func(i int) string, body func(i int, th Thread)) error
	// NewQueue makes the bounded queue of stream's copy set on host.
	NewQueue(stream, host string, capacity int) Queue
	// NewAcks makes the producer-side ack queue of one stream writer.
	NewAcks(capacity int) AckQueue
}

// Thread is the clock's handle for one running body: nil on the wall clock,
// the *sim.Proc on the virtual one. Blocking calls take it.
type Thread any

// Delivery is one buffer in flight on a copy-set queue, carrying what its
// consumer needs to acknowledge it to the producer copy's sliding window.
type Delivery struct {
	Buf Buffer
	// From is the producer's global copy index and Target the copy set's
	// index in its target table: with the stream, the window to acknowledge.
	From, Target int
	// AckEvery is the producer policy's ack coalescing factor; 0 means the
	// policy wants no acknowledgments.
	AckEvery int
	// Release, when set, recycles the pooled wire buffer a zero-copy
	// payload aliases; the consuming copy calls it at its next Read.
	Release func()
}

// Queue is a bounded FIFO of deliveries that honours cancellation.
//
// onBlock, when non-nil, is called just before an operation that cannot
// complete immediately starts to wait, so a live trace opens the stall span
// first. blocked reports that the operation waited: the wall clock's
// non-blocking attempt failed, or virtual time advanced (the virtual clock
// never calls onBlock — the runtime back-stamps the span instead).
type Queue interface {
	// Put enqueues d, waiting while the queue is full; ok is false when the
	// queue was cancelled.
	Put(th Thread, d Delivery, onBlock func()) (ok, blocked bool)
	// Get dequeues the next delivery, waiting while the queue is empty; ok
	// is false once the queue is closed and drained, or cancelled.
	Get(th Thread, onBlock func()) (d Delivery, ok, blocked bool)
	// Close marks end-of-work: Get drains what is buffered, then fails.
	Close()
	// Cancel fails every blocked and future Put and Get. Idempotent.
	Cancel()
}

// AckQueue is a stream writer's AckSource plus its consumer-facing end.
// Offer never blocks: a queue sized by AckCap accepts every acknowledgment
// its own consumers produce, and sheds what a faulty peer floods it with.
type AckQueue interface {
	AckSource
	Offer(target, n int) bool
}

// ---- Wall clock ----

type wallClock struct{ epoch time.Time }

// Wall returns the wall clock: bodies are goroutines, queues are buffered
// Go channels, and Now is seconds since this call.
func Wall() Clock { return wallClock{epoch: time.Now()} }

func (w wallClock) Now() float64 { return time.Since(w.epoch).Seconds() }

func (wallClock) Run(n int, _ func(int) string, body func(int, Thread)) error {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, nil)
		}(i)
	}
	wg.Wait()
	return nil
}

func (wallClock) NewQueue(_, _ string, capacity int) Queue {
	return &wallQueue{c: make(chan Delivery, capacity), stop: make(chan struct{})}
}

func (wallClock) NewAcks(capacity int) AckQueue { return NewAckChan(capacity) }

// wallQueue is the wall clock's Queue: a buffered channel plus a stop
// channel Cancel closes.
type wallQueue struct {
	c    chan Delivery
	stop chan struct{}
	once sync.Once
}

func (q *wallQueue) Put(_ Thread, d Delivery, onBlock func()) (ok, blocked bool) {
	select {
	case q.c <- d:
		return true, false
	case <-q.stop:
		return false, false
	default:
	}
	if onBlock != nil {
		onBlock()
	}
	select {
	case q.c <- d:
		return true, true
	case <-q.stop:
		return false, true
	}
}

func (q *wallQueue) Get(_ Thread, onBlock func()) (d Delivery, ok, blocked bool) {
	select {
	case d, ok = <-q.c:
		return d, ok, false
	case <-q.stop:
		return Delivery{}, false, false
	default:
	}
	if onBlock != nil {
		onBlock()
	}
	select {
	case d, ok = <-q.c:
		return d, ok, true
	case <-q.stop:
		return Delivery{}, false, true
	}
}

func (q *wallQueue) Close()  { close(q.c) }
func (q *wallQueue) Cancel() { q.once.Do(func() { close(q.stop) }) }

// ---- Virtual clock ----

// VirtualClock runs the runtime on a sim.Kernel: bodies are kernel
// processes spawned in index order, queues are sim.Chans, and Now is the
// kernel's virtual time. The kernel is cooperative, so everything the
// runtime does on this clock is deterministic.
type VirtualClock struct{ K *sim.Kernel }

func (v *VirtualClock) Now() float64 { return float64(v.K.Now()) }

func (v *VirtualClock) Run(n int, name func(int) string, body func(int, Thread)) error {
	for i := 0; i < n; i++ {
		i := i
		v.K.Spawn(name(i), func(p *sim.Proc) { body(i, p) })
	}
	return v.K.Run()
}

func (v *VirtualClock) NewQueue(stream, host string, capacity int) Queue {
	return virtualQueue{sim.NewChan[Delivery](v.K, stream+"@"+host, capacity)}
}

// NewAcks returns an unbounded AckSeq: acknowledgments are messages in
// flight on the modelled network, so no queue capacity bounds how many land
// between two writes.
func (v *VirtualClock) NewAcks(int) AckQueue { return &AckSeq{} }

type virtualQueue struct{ ch *sim.Chan[Delivery] }

func (q virtualQueue) Put(th Thread, d Delivery, _ func()) (ok, blocked bool) {
	p := th.(*sim.Proc)
	t0 := p.Now()
	ok = q.ch.Send(p, d)
	return ok, p.Now() > t0
}

func (q virtualQueue) Get(th Thread, _ func()) (d Delivery, ok, blocked bool) {
	p := th.(*sim.Proc)
	t0 := p.Now()
	d, ok = q.ch.Recv(p)
	return d, ok, p.Now() > t0
}

func (q virtualQueue) Close()  { q.ch.Close() }
func (q virtualQueue) Cancel() { q.ch.Abort() }
