package exec

import (
	"fmt"
	"sync/atomic"

	"datacutter/internal/obs"
)

// Copy is one transparent copy's view of one unit of work: the single Ctx
// implementation, handed to the filter in all three phases on every engine.
type Copy struct {
	rt *Runtime
	u  *uow
	in *instance
	fs *FilterStats
	th Thread // the thread running the current phase

	inputs  map[string]*input
	outputs map[string]*output
	outs    []*output // graph order, for end-of-work

	// o is the attached observer (nil = disabled; every use is guarded or
	// nil-receiver safe, so the off cost is a pointer comparison).
	o              *obs.Observer
	rstall, wstall *stall // nil when o is
	// service samples the time between successive reads (nil = disabled).
	service  *obs.Histogram
	lastRead float64

	// Process-phase time not spent computing: blocked on an empty input
	// queue, blocked on a full output queue, and moving buffers.
	readBlocked, writeBlocked, net float64

	// acks coalesces consumer-side acknowledgments per producer window for
	// batched-ack policies.
	acks *Coalescer[ackKey]
}

// input is one consumed stream: the copy set's shared queue, and the
// release of the zero-copy wire buffer backing the buffer most recently
// read from it (DataCutter's buffer contract: a delivered buffer is valid
// until the copy's next Read on the stream).
type input struct {
	st  *stream
	q   Queue
	rel func()
}

// output is one produced stream: this copy's writer, and the Port that
// brings the writer's pick back to a queue or the engine's Remote.
type output struct {
	c  *Copy
	st *stream
	sw *StreamWriter
}

// ackKey addresses the producer window an acknowledgment belongs to.
type ackKey struct {
	st           *stream
	from, target int
}

var _ Ctx = (*Copy)(nil)

func (rt *Runtime) newCopy(u *uow, in *instance, fs *FilterStats) *Copy {
	c := &Copy{
		rt: rt, u: u, in: in, fs: fs, o: rt.cfg.Obs,
		inputs:  make(map[string]*input),
		outputs: make(map[string]*output),
	}
	if c.o != nil {
		c.service = rt.m.service[in.name]
		c.rstall, c.wstall = c.newStall("read"), c.newStall("write")
	}
	for _, st := range u.order {
		if st.spec.To == in.name {
			for i, h := range st.hosts {
				if h == in.host {
					c.inputs[st.spec.Name] = &input{st: st, q: st.queues[i]}
				}
			}
		}
		if st.spec.From == in.name {
			c.addOutput(st)
		}
	}
	return c
}

// addOutput builds the copy's writer on one produced stream.
func (c *Copy) addOutput(st *stream) {
	rt, in := c.rt, c.in
	infos := make([]TargetInfo, len(st.hosts))
	for i, h := range st.hosts {
		infos[i] = TargetInfo{Host: h, Copies: st.copies[i], Local: h == in.host}
	}
	out := &output{c: c, st: st}
	out.sw = NewStreamWriter(st.spec.Name, rt.cfg.Policies.For(st.spec.Name), infos, out, st.counts,
		Meta{Obs: rt.cfg.Obs, Filter: in.name, Copy: in.index, Host: in.host, UOW: c.u.index})
	if out.sw.WantsAcks() {
		// Sized (AckCap) so a local consumer's acknowledgment is never shed:
		// at most queue capacity + copies buffers per target can be un-acked
		// from this producer at once. Acks arriving off the wire are shed on
		// overflow, so a runtime with remote peers trades memory for fewer
		// conservative drops under fault-injected duplication.
		capacity := AckCap(infos, rt.qcap)
		if rt.cfg.Remote != nil {
			capacity *= 4
		}
		aq := rt.cfg.Clock.NewAcks(capacity)
		st.acks[in.index] = aq
		out.sw.BindAckSource(aq)
	}
	c.outputs[st.spec.Name] = out
	c.outs = append(c.outs, out)
	st.writers = append(st.writers, out.sw)
}

// contain invokes one phase of the filter, converting a panic into an error
// — a buggy filter aborts its run, not the process — and giving every
// failure the one shape "<engine>: filter F copy N (phase): cause".
func (c *Copy) contain(phase string, call func(*Copy) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
		if err != nil {
			err = fmt.Errorf("%s: filter %s copy %d (%s): %w", c.rt.cfg.Engine, c.in.name, c.in.index, phase, err)
		}
	}()
	return call(c)
}

// panicError is what a recovered filter panic is reported as.
func panicError(r any) error { return fmt.Errorf("filter panicked: %v", r) }

func (c *Copy) event(k obs.Kind, stream string) obs.Event {
	return obs.Event{Kind: k, Filter: c.in.name, Copy: c.in.index, Host: c.in.host, Stream: stream, UOW: c.u.index}
}

func (c *Copy) emit(k obs.Kind) { c.o.Emit(c.event(k, "")) }

// stall traces a copy's potentially blocking queue operations in one
// direction (observability on only). On the wall clock the queue calls
// begin before it waits, so the span opens live; on the virtual clock the
// wait is only visible afterwards as elapsed time, and the pair is
// back-stamped — those events land in the sink after intervening events
// from other simulated processes, and their timestamps, not emission order,
// are authoritative.
type stall struct {
	c      *Copy
	begin  func() // s.open, bound once so an operation allocates nothing
	e      obs.Event
	t0     float64
	opened bool
}

func (c *Copy) newStall(dir string) *stall {
	s := &stall{c: c, e: c.event(obs.KindStallStart, "")}
	s.e.Note = dir
	s.begin = s.open
	return s
}

// start arms the tracer for one operation and returns the onBlock callback
// to hand the queue; a nil tracer (observability off) returns nil.
func (s *stall) start(stream string, t0 float64) func() {
	if s == nil {
		return nil
	}
	s.e.Kind, s.e.Stream = obs.KindStallStart, stream
	s.t0, s.opened = t0, false
	return s.begin
}

func (s *stall) open() {
	s.opened = true
	s.c.o.Emit(s.e)
}

func (s *stall) end(blocked bool, t1 float64, h *obs.Histogram) {
	if s == nil || !blocked {
		return
	}
	h.Observe(t1 - s.t0)
	if s.opened {
		s.e.Kind = obs.KindStallEnd
		s.c.o.Emit(s.e)
		return
	}
	s.c.o.EmitAt(s.t0, s.e)
	s.e.Kind = obs.KindStallEnd
	s.c.o.EmitAt(t1, s.e)
}

// Read implements Ctx.
func (c *Copy) Read(stream string) (Buffer, bool) {
	in, ok := c.inputs[stream]
	if !ok {
		panic(fmt.Sprintf("%s: filter %s reads unknown input stream %q", c.rt.cfg.Engine, c.in.name, stream))
	}
	clock := c.rt.cfg.Clock
	t0 := clock.Now()
	d, ok, blocked := in.q.Get(c.th, c.rstall.start(stream, t0))
	t1 := clock.Now()
	c.readBlocked += t1 - t0
	c.rstall.end(blocked, t1, c.rt.m.readStall)
	// The previous buffer on this stream is finished now; recycle the wire
	// buffer a zero-copy payload was decoded in place from.
	if in.rel != nil {
		in.rel()
	}
	in.rel = d.Release
	if !ok {
		// End-of-work (or cancellation): release coalesced acknowledgments
		// so producer windows settle even when a batch is incomplete.
		if c.acks != nil {
			c.acks.Flush()
		}
		return Buffer{}, false
	}
	if d.AckEvery > 0 {
		// Acknowledge as processing begins (paper §2), coalescing per the
		// producer policy's batch factor.
		if c.acks == nil {
			c.acks = NewCoalescer[ackKey](c.sendAck)
		}
		c.acks.Ack(ackKey{in.st, d.From, d.Target}, d.AckEvery)
	}
	if c.service != nil {
		if c.lastRead > 0 {
			c.service.Observe(t1 - c.lastRead)
		}
		c.lastRead = t1
	}
	atomic.AddInt64(&c.fs.BuffersIn, 1)
	return d.Buf, true
}

// sendAck sends one acknowledgment message covering n buffers to the
// producer copy's window: straight into its ack queue when the producer
// runs here (as a message on the modelled network when the clock has a
// cost model), through the Remote otherwise.
func (c *Copy) sendAck(k ackKey, n int) {
	st := k.st
	atomic.AddInt64(&st.stats.Acks, 1)
	from := c.rt.hostOf[st.spec.From][k.from]
	st.m.acks.Inc()
	if c.o != nil {
		e := c.event(obs.KindAck, st.spec.Name)
		e.Target, e.N = from, n
		c.o.Emit(e)
	}
	aq := st.acks[k.from]
	switch {
	case aq == nil:
		c.rt.cfg.Remote.Ack(from, Edge{UOW: c.u.index, Stream: st.index, From: k.from, Target: k.target}, n)
	case c.rt.cost != nil:
		c.rt.cost.Ack(c, from, func() { aq.Offer(k.target, n) })
	default:
		aq.Offer(k.target, n)
	}
}

// Write implements Ctx: ack drain, policy pick and window update happen in
// the StreamWriter; its Deliver callback below places the buffer.
func (c *Copy) Write(stream string, b Buffer) error {
	out, ok := c.outputs[stream]
	if !ok {
		panic(fmt.Sprintf("%s: filter %s writes unknown output stream %q", c.rt.cfg.Engine, c.in.name, stream))
	}
	return out.sw.Write(b)
}

// Deliver implements Port for one producer copy's writer: a pick of a copy
// set that lives in this runtime lands on its queue (after the cost model's
// transfer, if there is one); any other pick goes out through the Remote.
func (p *output) Deliver(idx int, b Buffer, ackEvery int) error {
	c, st := p.c, p.st
	clock := c.rt.cfg.Clock
	host := st.hosts[idx]
	var sent obs.Event // the send event; the enqueue event differs in kind only
	if c.o != nil {
		sent = c.event(obs.KindSend, st.spec.Name)
		sent.Target, sent.Bytes = host, b.Size
	}
	if q := st.queues[idx]; q != nil {
		if cost := c.rt.cost; cost != nil {
			t0 := clock.Now()
			cost.Transfer(c, host, b.Size)
			c.net += clock.Now() - t0
			c.o.Emit(sent)
		}
		d := Delivery{Buf: b, From: c.in.index, Target: idx, AckEvery: ackEvery}
		// Blocking here is backpressure from a full consumer queue.
		t0 := clock.Now()
		ok, blocked := q.Put(c.th, d, c.wstall.start(st.spec.Name, t0))
		t1 := clock.Now()
		c.writeBlocked += t1 - t0
		c.wstall.end(blocked, t1, c.rt.m.writeStall)
		if !ok {
			return ErrCancelled
		}
		if c.o != nil {
			sent.Kind = obs.KindEnqueue
			c.o.Emit(sent)
		}
	} else {
		t0 := clock.Now()
		err := c.rt.cfg.Remote.Deliver(host, Edge{UOW: c.u.index, Stream: st.index, From: c.in.index, Target: idx}, b, ackEvery)
		c.net += clock.Now() - t0
		if err != nil {
			return err
		}
		c.o.Emit(sent)
	}
	atomic.AddInt64(&st.stats.Buffers, 1)
	atomic.AddInt64(&st.stats.Bytes, int64(b.Size))
	atomic.AddInt64(&c.fs.BuffersOut, 1)
	st.m.buffers.Inc()
	st.m.bytes.Add(int64(b.Size))
	return nil
}

// endOfWork runs when the copy's Process returns: it will write no more
// buffers, so every consumer host of every output stream learns that one
// producer finished.
func (c *Copy) endOfWork() {
	for _, out := range c.outs {
		st := out.st
		st.producerDone()
		for i, h := range st.hosts { // distinct: Place merges repeats
			if st.queues[i] == nil {
				c.rt.cfg.Remote.ProducerDone(h, c.u.index, st.index)
			}
		}
	}
}

// Compute implements Ctx.
func (c *Copy) Compute(refSeconds float64) {
	if c.rt.cost != nil {
		c.rt.cost.Compute(c, refSeconds)
	}
}

// ChargeDisk implements Ctx.
func (c *Copy) ChargeDisk(disk, bytes int) {
	if c.rt.cost != nil {
		c.rt.cost.ChargeDisk(c, disk, bytes)
	}
}

func (c *Copy) streamOf(stream string) *stream {
	if out, ok := c.outputs[stream]; ok {
		return out.st
	}
	if in, ok := c.inputs[stream]; ok {
		return in.st
	}
	panic(fmt.Sprintf("%s: filter %s references unknown stream %q", c.rt.cfg.Engine, c.in.name, stream))
}

// DeclareBuffer implements Ctx.
func (c *Copy) DeclareBuffer(stream string, minBytes, maxBytes int) {
	st := c.streamOf(stream)
	st.declMu.Lock()
	st.decl = Declare(st.decl, minBytes, maxBytes)
	st.declMu.Unlock()
}

// BufferBytes implements Ctx.
func (c *Copy) BufferBytes(stream string) int { return c.streamOf(stream).bufBytes }

func (c *Copy) Host() string     { return c.in.host }
func (c *Copy) CopyIndex() int   { return c.in.index }
func (c *Copy) TotalCopies() int { return c.in.total }
func (c *Copy) UOW() int         { return c.u.index }
func (c *Copy) Work() any        { return c.u.work }

// Thread returns the clock's handle for the thread running this copy's
// current phase; a Cost implementation blocks on it.
func (c *Copy) Thread() Thread { return c.th }

// AddReadBlocked charges seconds a Cost hook spent waiting for input (a
// prefetch slot) to the copy's read-blocked time.
func (c *Copy) AddReadBlocked(seconds float64) { c.readBlocked += seconds }
