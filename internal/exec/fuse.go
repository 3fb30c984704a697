package exec

import (
	"errors"
	"io"
	"math"

	"datacutter/internal/obs"
)

// Fuse returns the filter that runs up and down inside one copy, with
// stream — up's output, down's input — kept in memory: the paper's combined
// filters (RE, ERa, RERa) are groupings of the same stages, not new code.
// Init and Finalize run both parts in order. Process runs down as a
// coroutine of up: up's Write(stream, b) hands b straight to down's pending
// Read(stream) and returns when down reads again — no queue, copy, policy
// pick or stats row. Every other Ctx call of either part reaches the one
// real Copy, so a fused filter is placed, scheduled, accounted and cancelled
// as the single filter the graph names; exactly one part runs at a time, on
// either clock. Fusions nest: either part may itself be a fusion.
func Fuse(up, down Filter, stream string) Filter {
	return &fused{up: up, down: down, stream: stream}
}

type fused struct {
	up, down Filter
	stream   string
}

// fuseCtx is the Ctx both parts see. The fused stream has no buffers: its
// size reads as unbounded, so a producer that packs to the buffer size
// flushes only at its own input-buffer boundaries.
type fuseCtx struct {
	Ctx
	stream string
}

func (c fuseCtx) BufferBytes(stream string) int {
	if stream == c.stream {
		return math.MaxInt
	}
	return c.Ctx.BufferBytes(stream)
}

func (f *fused) Init(ctx Ctx) error     { return f.inOrder(ctx, Filter.Init) }
func (f *fused) Finalize(ctx Ctx) error { return f.inOrder(ctx, Filter.Finalize) }

func (f *fused) inOrder(ctx Ctx, phase func(Filter, Ctx) error) error {
	c := fuseCtx{ctx, f.stream}
	if err := phase(f.up, c); err != nil {
		return err
	}
	return phase(f.down, c)
}

// link is the fused stream during one Process call. Control passes over two
// unbuffered channels, so the parts strictly alternate and every access to
// the shared Copy is ordered.
type link struct {
	fuseCtx
	next chan Buffer   // up → down: the buffer for down's pending Read; closed at up's end of work
	idle chan struct{} // down → up: down is back in Read; closed when down's Process has returned
	err  error         // down's result, set before idle closes
}

var errFusedShort = errors.New("exec: fused consumer returned before end-of-work")

func (f *fused) Process(ctx Ctx) (err error) {
	l := &link{fuseCtx: fuseCtx{ctx, f.stream}, next: make(chan Buffer), idle: make(chan struct{})}
	go func() {
		defer close(l.idle)
		defer func() {
			if r := recover(); r != nil {
				l.err = panicError(r)
			}
		}()
		l.err = f.down.Process(l)
	}()
	<-l.idle // down runs first, up to its first Read of the stream
	defer func() {
		// End of work for down, however up ended; wait out what down still
		// does with it, so its goroutine never outlives the Process call.
		close(l.next)
		for range l.idle {
		}
		if err == nil {
			err = l.err
		}
	}()
	return f.up.Process(l)
}

// Write is up's side of the link: it resumes down with b and waits for it
// to come back for more. If down has returned instead — failed, panicked or
// cancelled — up learns why here.
func (l *link) Write(stream string, b Buffer) error {
	if stream != l.stream {
		return l.Ctx.Write(stream, b)
	}
	select {
	case l.next <- b:
		if _, ok := <-l.idle; ok {
			return nil
		}
	case <-l.idle:
	}
	if l.err != nil {
		return l.err
	}
	return errFusedShort
}

// Read is down's side of the link.
func (l *link) Read(stream string) (Buffer, bool) {
	if stream != l.stream {
		return l.Ctx.Read(stream)
	}
	l.idle <- struct{}{}
	b, ok := <-l.next
	return b, ok
}

// SetObserver implements ObserverSetter for whichever parts do.
func (f *fused) SetObserver(o *obs.Observer) {
	for _, p := range []Filter{f.up, f.down} {
		if s, ok := p.(ObserverSetter); ok {
			s.SetObserver(o)
		}
	}
}

// Close implements io.Closer for whichever parts do.
func (f *fused) Close() error {
	var first error
	for _, p := range []Filter{f.up, f.down} {
		if c, ok := p.(io.Closer); ok {
			if err := c.Close(); first == nil {
				first = err
			}
		}
	}
	return first
}
