package sim

// Chan is a bounded FIFO channel in virtual time, with semantics modeled on
// Go channels: Send blocks while the buffer is full, Recv blocks while it is
// empty, a capacity of zero rendezvouses sender and receiver, and Close
// wakes blocked receivers. Abort adds what Go gets from selecting on a done
// channel: it cancels every blocked and future operation. All operations
// must be made by the currently running process (or, for Close, Abort and
// TryRecv, a kernel callback).
type Chan[T any] struct {
	k       *Kernel
	name    string
	buf     []T
	cap     int
	closed  bool
	aborted bool
	sendq   []*chanWaiter[T]
	recvq   []*chanWaiter[T]
}

type chanWaiter[T any] struct {
	p         *Proc
	val       T
	delivered bool // receiver: a value arrived; sender: the value was taken
	broken    bool // sender woken by Close
}

// NewChan creates a channel with the given buffer capacity (>= 0).
func NewChan[T any](k *Kernel, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{k: k, name: name, cap: capacity}
}

// Len returns the number of buffered values (excluding parked senders).
func (c *Chan[T]) Len() int { return len(c.buf) }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send delivers v, blocking in virtual time while the channel is full, and
// reports true. Sending on a closed channel panics, as does a send that is
// woken by Close; on an aborted channel Send delivers nothing and reports
// false.
func (c *Chan[T]) Send(p *Proc, v T) bool {
	if c.aborted {
		return false
	}
	if c.closed {
		panic("sim: send on closed Chan " + c.name)
	}
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		w.val = v
		w.delivered = true
		c.k.Unpark(w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	w := &chanWaiter[T]{p: p, val: v}
	c.sendq = append(c.sendq, w)
	p.Park("send " + c.name)
	if w.broken {
		if c.aborted {
			return false
		}
		panic("sim: send on closed Chan " + c.name)
	}
	return true
}

// Recv returns the next value. ok is false if and only if the channel is
// closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// A parked sender can now move its value into the buffer.
		if len(c.sendq) > 0 {
			w := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, w.val)
			w.delivered = true
			c.k.Unpark(w.p)
		}
		return v, true
	}
	if len(c.sendq) > 0 { // rendezvous (cap == 0)
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		w.delivered = true
		c.k.Unpark(w.p)
		return w.val, true
	}
	if c.closed {
		return v, false
	}
	w := &chanWaiter[T]{p: p}
	c.recvq = append(c.recvq, w)
	p.Park("recv " + c.name)
	if !w.delivered {
		var zero T
		return zero, false // closed while waiting
	}
	return w.val, true
}

// TryRecv returns a value without blocking; ok is false if none is ready.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		if len(c.sendq) > 0 {
			w := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, w.val)
			w.delivered = true
			c.k.Unpark(w.p)
		}
		return v, true
	}
	if len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		w.delivered = true
		c.k.Unpark(w.p)
		return w.val, true
	}
	var zero T
	return zero, false
}

// Close marks the channel closed and wakes all blocked receivers (they
// observe ok == false) and all blocked senders (they panic). Closing twice
// panics.
func (c *Chan[T]) Close() {
	if c.aborted {
		return
	}
	if c.closed {
		panic("sim: close of closed Chan " + c.name)
	}
	c.closed = true
	for _, w := range c.recvq {
		c.k.Unpark(w.p)
	}
	c.recvq = nil
	for _, w := range c.sendq {
		w.broken = true
		c.k.Unpark(w.p)
	}
	c.sendq = nil
}

// Abort cancels the channel: buffered values are dropped, every blocked
// receiver wakes with ok == false, every blocked sender wakes with Send
// reporting false, and later operations fail the same way without
// blocking. Unlike Close it is legal with senders parked, and it may follow
// or precede Close. Aborting twice is a no-op.
func (c *Chan[T]) Abort() {
	if c.aborted {
		return
	}
	c.aborted, c.closed = true, true
	c.buf = nil
	for _, w := range c.recvq {
		c.k.Unpark(w.p)
	}
	c.recvq = nil
	for _, w := range c.sendq {
		w.broken = true
		c.k.Unpark(w.p)
	}
	c.sendq = nil
}
