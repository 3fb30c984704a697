package dist

import (
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/exec"
)

// countSink counts the buffers it reads on stream s.
type countSink struct {
	core.BaseFilter
	n int
}

func (k *countSink) Process(ctx core.Ctx) error {
	for {
		if _, ok := ctx.Read("s"); !ok {
			return nil
		}
		k.n++
	}
}

func init() {
	RegisterFilter("test.countsink", func([]byte) (core.Filter, error) { return &countSink{}, nil })
}

// rawHost drives one worker over raw connections, acting as the coordinator
// and as the producer host "src" of the graph S(src) -> K(sink) on stream
// s, where K counts what reaches it. The worker serves host "sink".
type rawHost struct {
	t *testing.T
	w *Worker
}

func newRawHost(t *testing.T) *rawHost {
	t.Helper()
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	go w.Serve()
	return &rawHost{t: t, w: w}
}

func (h *rawHost) dial() *conn {
	h.t.Helper()
	nc, err := net.Dial("tcp", h.w.Addr())
	if err != nil {
		h.t.Fatal(err)
	}
	c := newConn(nc, nil)
	h.t.Cleanup(c.close)
	return c
}

// send sends f on c; a peer connection the worker closed may refuse it.
func (h *rawHost) send(c *conn, f *frame) { _ = c.send(f) }

// ctl is a control connection with a reader pumping the worker's replies,
// heartbeats left out, into a channel: a timed-out wait leaves the
// connection usable.
type ctl struct {
	*conn
	replies chan *frame
}

// reply returns the next reply, or nil when none arrives within d.
func (c ctl) reply(d time.Duration) *frame {
	select {
	case f := <-c.replies:
		return f
	case <-time.After(d):
		return nil
	}
}

// expect fails the test unless the next reply is of kind k, skipping the
// kinds in skip.
func (h *rawHost) expect(c ctl, k frameKind, skip ...frameKind) {
	h.t.Helper()
	for {
		f := c.reply(5 * time.Second)
		switch {
		case f == nil:
			h.t.Fatalf("no reply of kind %d", k)
		case f.Kind == k:
			return
		case slices.Contains(skip, f.Kind):
			continue
		case f.Kind == kindFail:
			h.t.Fatalf("worker failed waiting for kind %d: %s", k, f.Err)
		default:
			h.t.Fatalf("reply of kind %d, want %d", f.Kind, k)
		}
	}
}

// setup sets job up on the worker as setup round id and starts unit of
// work 0's process phase.
func (h *rawHost) setup(job, id uint64) ctl {
	h.t.Helper()
	// Sized above the replies one test session gets, so the pump never
	// blocks on a test that stopped reading.
	c := ctl{h.dial(), make(chan *frame, 16)}
	go func() {
		for {
			f, err := c.recv()
			if err != nil {
				return
			}
			if f.Kind != kindHeartbeat {
				c.replies <- f
			}
		}
	}()
	h.send(c.conn, &frame{Kind: kindSetup, Setup: &setupMsg{
		ID: id,
		Graph: GraphSpec{
			Filters: []FilterSpec{{Name: "S", Kind: "test.nop"}, {Name: "K", Kind: "test.countsink"}},
			Streams: []core.StreamSpec{{Name: "s", From: "S", To: "K"}},
		},
		Placement: []PlacementEntry{{Filter: "S", Host: "src", Copies: 1}, {Filter: "K", Host: "sink", Copies: 1}},
		Opts:      Options{JobID: job, HeartbeatInterval: 10 * time.Second},
		Addrs:     map[string]string{"src": "127.0.0.1:1", "sink": h.w.Addr()}, // src is never dialed
		Host:      "sink",
	}})
	h.expect(c, kindSetupOK)
	h.send(c.conn, &frame{Kind: kindInitUOW, UOW: &uowMsg{}})
	h.expect(c, kindDecls)
	h.send(c.conn, &frame{Kind: kindBeginProcess, Sizes: map[string]int{"s": 64}})
	return c
}

// producer dials the worker as src's session of (job, id).
func (h *rawHost) producer(job, id uint64) *conn {
	c := h.dial()
	h.send(c, &frame{Kind: kindHello, Job: job, SetupID: id})
	return c
}

// produce sends src's one buffer of unit of work 0 and its end-of-work.
func (h *rawHost) produce(p *conn) {
	h.send(p, dataFrame(exec.Edge{}, 0, 1, []byte{1}))
	h.send(p, &frame{Kind: kindProducerDone})
}

// closedByWorker reports whether the worker closes c within a few seconds.
func (h *rawHost) closedByWorker(c *conn) bool {
	c.setReadDeadline(5 * time.Second)
	_, err := c.recv()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return err != nil
}

// finish ends unit of work 0 and the session, and returns how many buffers
// the job's sink read.
func (h *rawHost) finish(c ctl, job uint64) int {
	h.t.Helper()
	h.expect(c, kindProcessDone)
	h.send(c.conn, &frame{Kind: kindFinalize})
	h.expect(c, kindFinalizeDone)
	h.send(c.conn, &frame{Kind: kindShutdown})
	h.expect(c, kindShutdownDone)
	ks := h.w.InstancesJob(job, "K")
	if len(ks) != 1 {
		h.t.Fatalf("job %d has %d sink instances, want 1", job, len(ks))
	}
	return ks[0].(*countSink).n
}

// Frames an aborted attempt left on its peer connection must never reach
// the retry of the same job: the connection belongs to the attempt's
// session and closes with it. Before peer connections were bound to one
// session, the worker routed every frame by its job id, and the retry's
// sink took attempt 0's buffer and finished on its end-of-work before its
// own producer had connected.
func TestStaleAttemptFramesNeverReachRetry(t *testing.T) {
	h := newRawHost(t)
	c0 := h.setup(7, 100)
	p0 := h.producer(7, 100)
	h.send(c0.conn, &frame{Kind: kindAbort, Err: "host lost"})
	h.expect(c0, kindAbortDone, kindProcessDone, kindFail)

	c1 := h.setup(7, 101)
	h.produce(p0) // attempt 0's frames, late, on attempt 0's connection
	if f := c1.reply(300 * time.Millisecond); f != nil {
		t.Fatalf("the retry replied %d on attempt 0's frames, before its own producer connected", f.Kind)
	}
	if !h.closedByWorker(p0) {
		t.Fatal("attempt 0's peer connection outlived its session")
	}
	h.produce(h.producer(7, 101))
	if n := h.finish(c1, 7); n != 1 {
		t.Fatalf("the retry's sink read %d buffers, want its own 1", n)
	}
}

// A hello naming no live (job, setup round) pair — a stray dialer, or an
// attempt whose session is gone — gets its connection closed, and the
// frames written after that hello reach no session.
func TestPeerHelloUnknownSessionClosed(t *testing.T) {
	h := newRawHost(t)
	c := h.setup(7, 100)
	for _, hello := range []struct{ job, id uint64 }{{7, 99}, {8, 100}, {7, 0}} {
		p := h.producer(hello.job, hello.id)
		h.produce(p)
		if !h.closedByWorker(p) {
			t.Fatalf("hello (job %d, setup %d) kept its connection", hello.job, hello.id)
		}
	}
	if f := c.reply(300 * time.Millisecond); f != nil {
		t.Fatalf("the session replied %d on frames from unbound connections", f.Kind)
	}
	h.send(h.producer(7, 100), &frame{Kind: kindProducerDone})
	if n := h.finish(c, 7); n != 0 {
		t.Fatalf("the sink read %d buffers from unbound connections", n)
	}
}

// A frame naming a stream the session's graph does not have is malformed:
// it fails its connection, and the session waits on.
func TestPeerFrameStreamOutOfRangeFailsConn(t *testing.T) {
	h := newRawHost(t)
	c := h.setup(7, 100)
	p := h.producer(7, 100)
	h.send(p, &frame{Kind: kindProducerDone, Stream: 1})
	if !h.closedByWorker(p) {
		t.Fatal("a frame naming stream 1 of a one-stream graph kept its connection")
	}
	h.produce(h.producer(7, 100))
	if n := h.finish(c, 7); n != 1 {
		t.Fatalf("the sink read %d buffers, want 1", n)
	}
}

// newSession refuses a graph whose streams a u16 index cannot name.
func TestSetupRefusesTooManyStreams(t *testing.T) {
	streams := make([]core.StreamSpec, 1<<16)
	if _, err := newSession(nil, &setupMsg{Graph: GraphSpec{Streams: streams}}); !errors.Is(err, errTooManyStreams) {
		t.Fatalf("newSession with %d streams: %v", len(streams), err)
	}
}
