package dist

import (
	"net"
	"testing"
	"time"

	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// tcpPair returns a connected loopback socket pair so the vectored-write
// path (net.Buffers -> writev) is the one under test.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, derr := net.Dial("tcp", ln.Addr().String())
	<-done
	if err != nil || derr != nil {
		t.Fatalf("pair: accept=%v dial=%v", err, derr)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestConnBatchedWritevRoundTrip pushes a burst of small and large frames
// through one conn and checks the receiver sees every frame, in order, with
// intact payloads — the writev framing invariant: segment boundaries are
// invisible on the wire.
func TestConnBatchedWritevRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	cc, sc := tcpPair(t)

	reg := obs.NewRegistry()
	m := &connMetrics{
		flushes:        reg.Counter("dist.tx.flushes"),
		framesPerFlush: reg.Histogram("dist.tx.frames_per_flush"),
		frameBytes:     reg.Histogram("dist.tx.frame_bytes"),
		writevCalls:    reg.Counter("dist.tx.writev_calls"),
		writevIovecs:   reg.Histogram("dist.tx.writev_iovecs"),
		writevBytes:    reg.Counter("dist.tx.writev_bytes"),
	}
	c := newConn(cc, m)
	defer c.close()
	s := newConn(sc, nil)
	defer s.close()

	big := make([]byte, 3*smallFrameMax)
	for i := range big {
		big[i] = byte(i)
	}
	const n = 100
	for i := 0; i < n; i++ {
		var f *frame
		if i%10 == 9 { // every tenth frame is a large zero-copy segment
			f = dataFrame(7, 0, "s", 0, 0, 0, len(big), big)
		} else {
			f = &frame{Kind: kindAck, Job: 7, Stream: "s", Target: i, AckN: 1}
		}
		if err := c.send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		f, err := s.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if i%10 == 9 {
			if f.Kind != kindData || len(f.Payload) == 0 {
				t.Fatalf("frame %d: kind %v, payload %d bytes", i, f.Kind, len(f.Payload))
			}
			p, rel, err := decodePayload(f)
			if err != nil {
				t.Fatal(err)
			}
			got := p.([]byte)
			for j := range got {
				if got[j] != byte(j) {
					t.Fatalf("frame %d payload corrupted at byte %d", i, j)
				}
			}
			if rel != nil {
				rel()
			}
		} else if f.Kind != kindAck || f.Target != i {
			t.Fatalf("frame %d: kind %v target %d", i, f.Kind, f.Target)
		}
	}
	// The flusher counts a batch after its write returns, which can be
	// after the receiver has read it; close waits out an in-flight flush.
	c.close()
	if v := reg.Counter("dist.tx.writev_calls").Value(); v == 0 {
		t.Fatal("no vectored writes recorded")
	}
	if v := reg.Counter("dist.tx.writev_bytes").Value(); v == 0 {
		t.Fatal("no vectored bytes recorded")
	}
}

// TestFlusherStopsOnClose pins the satellite fix: the flush-on-idle
// goroutine must exit when the connection closes (leakcheck fails the test
// if it lingers), including when frames are still queued at close time.
func TestFlusherStopsOnClose(t *testing.T) {
	leakcheck.Check(t)
	for i := 0; i < 20; i++ {
		cc, sc := tcpPair(t)
		c := newConn(cc, nil)
		s := newConn(sc, nil)
		for j := 0; j < 50; j++ {
			if err := c.send(&frame{Kind: kindAck, Job: 1, Stream: "s", AckN: 1}); err != nil {
				t.Fatal(err)
			}
		}
		c.close()
		s.close()
	}
}

// TestConnCloseBoundedOnStuckPeer reproduces the close-time deadlock the
// rewrite fixes: the flusher is mid-write on a peer that never reads, and
// close() must still return within its deadline bound instead of waiting
// out the TCP stack. net.Pipe is fully synchronous (a write blocks until
// the other side reads), the sharpest version of "stuck".
func TestConnCloseBoundedOnStuckPeer(t *testing.T) {
	leakcheck.Check(t)
	cc, sc := net.Pipe()
	defer sc.Close()
	c := newConn(cc, nil)
	if err := c.send(&frame{Kind: kindAck, Job: 1, Stream: "s", AckN: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		c.close()
		close(done)
	}()
	select {
	case <-done:
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("close took %v against a stuck peer", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close deadlocked against a stuck peer")
	}
}

// TestSendAfterCloseFails pins the sticky error: a closed connection
// refuses frames deterministically rather than queueing them forever.
func TestSendAfterCloseFails(t *testing.T) {
	leakcheck.Check(t)
	cc, sc := tcpPair(t)
	c := newConn(cc, nil)
	s := newConn(sc, nil)
	defer s.close()
	c.close()
	if err := c.send(&frame{Kind: kindAck, Job: 1, Stream: "s"}); err == nil {
		t.Fatal("send on a closed conn succeeded")
	}
}
