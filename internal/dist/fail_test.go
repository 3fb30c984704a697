package dist

import (
	"errors"
	"strings"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
)

type nopFilter struct{ core.BaseFilter }

func (nopFilter) Process(core.Ctx) error { return nil }

// noCodecPayload has no PayloadCodec, so no host can ship it.
type noCodecPayload struct{}

// noCodecSource writes one noCodecPayload on stream s.
type noCodecSource struct{ core.BaseFilter }

func (noCodecSource) Process(ctx core.Ctx) error {
	return ctx.Write("s", core.Buffer{Payload: noCodecPayload{}, Size: 1})
}

// refusedPayload's codec fails every Append.
type refusedPayload struct{}

type refusingCodec struct{}

func (refusingCodec) Append([]byte, any) ([]byte, error) { return nil, errors.New("append refused") }
func (refusingCodec) Decode([]byte) (any, error)         { return refusedPayload{}, nil }
func (refusingCodec) ZeroCopy() bool                     { return false }

func init() {
	RegisterFilter("test.nop", func([]byte) (core.Filter, error) { return nopFilter{}, nil })
	RegisterFilter("test.nocodec", func([]byte) (core.Filter, error) { return noCodecSource{}, nil })
	RegisterCodec(0xFFFF, refusedPayload{}, refusingCodec{})
}

// pairSession starts serving workers for hosts h0 and h1 and returns h0's
// session of the graph S(h0) -> K(h1) on stream s, S built from source.
func pairSession(t *testing.T, source string) (*session, GraphSpec, []PlacementEntry, map[string]string) {
	t.Helper()
	addrs := map[string]string{}
	var w0 *Worker
	for _, host := range []string{"h0", "h1"} {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		go w.Serve()
		addrs[host] = w.Addr()
		if w0 == nil {
			w0 = w
		}
	}
	graph := GraphSpec{
		Filters: []FilterSpec{{Name: "S", Kind: source}, {Name: "K", Kind: "test.nop"}},
		Streams: []core.StreamSpec{{Name: "s", From: "S", To: "K"}},
	}
	place := []PlacementEntry{{Filter: "S", Host: "h0", Copies: 1}, {Filter: "K", Host: "h1", Copies: 1}}
	s, err := newSession(w0, &setupMsg{
		Graph: graph, Placement: place, Addrs: addrs, Host: "h0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closePeers)
	return s, graph, place, addrs
}

// A killed worker's own links fail — its dial is refused or its conn
// severed — and that must not read as its healthy peer failing: the
// failure reply would make the coordinator mark the peer dead. Kill the
// sender, then deliver to the peer.
func TestKilledSenderDoesNotImplicatePeer(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		s, _, _, _ := pairSession(t, "test.nop")
		s.w.Kill()
		if err := s.Deliver("h1", exec.Edge{}, core.Buffer{Payload: []byte{1}, Size: 1}, 0); err == nil {
			t.Fatal("a killed worker delivered a buffer")
		}
		if f := s.failFrame(s.rt.Err()); f != nil {
			t.Fatalf("killed worker replies %+v (implicating %q)", f, f.FailHost)
		}
	})
}

// A payload type without a codec is the producer's error: the run fails
// naming the type and the stream, and no peer is blamed. Blaming one would
// make the coordinator mark a healthy host dead and retry the unit of work
// without it, and jobd charge it a quarantine strike.
func TestUnencodablePayloadIsProducerError(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		s, graph, place, addrs := pairSession(t, "test.nocodec")
		if err := s.Deliver("h1", exec.Edge{}, core.Buffer{Payload: noCodecPayload{}, Size: 1}, 0); err == nil {
			t.Fatal("a payload without a codec was delivered")
		}
		cause := s.rt.Err()
		if f := s.failFrame(cause); f.FailNet || f.FailHost != "" {
			t.Fatalf("failure reply implicates peer %q (FailNet %v): %s", f.FailHost, f.FailNet, f.Err)
		}
		namesTypeAndStream := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "dist.noCodecPayload") || !strings.Contains(err.Error(), "stream s") {
				t.Fatalf("%s error %v does not name the payload type and the stream", what, err)
			}
		}
		namesTypeAndStream("session", cause)

		reg := obs.NewRegistry()
		_, err := RunObserved(addrs, graph, place, Options{MaxUOWRetries: 2}, nil, obs.New(nil, reg))
		namesTypeAndStream("run", err)
		var he *HostsError
		if errors.As(err, &he) {
			t.Fatalf("run error implicates hosts %v", he.Hosts)
		}
		if lost, retries := reg.Counter("coord.hosts_lost").Value(), reg.Counter("coord.uow_retries").Value(); lost != 0 || retries != 0 {
			t.Fatalf("coord.hosts_lost = %d, coord.uow_retries = %d; want 0, 0", lost, retries)
		}
	})
}

// So is a nil payload: no codec takes one, and the frame must not reach
// the peer as a codec id it will refuse to decode.
func TestNilPayloadIsProducerError(t *testing.T) {
	s, _, _, _ := pairSession(t, "test.nop")
	if err := s.Deliver("h1", exec.Edge{}, core.Buffer{Size: 1}, 0); err == nil {
		t.Fatal("a nil payload was delivered")
	}
	cause := s.rt.Err()
	if f := s.failFrame(cause); f.FailNet || f.FailHost != "" {
		t.Fatalf("failure reply implicates peer %q (FailNet %v): %s", f.FailHost, f.FailNet, f.Err)
	}
	if !strings.Contains(cause.Error(), "stream s: <nil> payload: no payload codec registered") {
		t.Fatalf("session error %v does not name the stream and the missing codec", cause)
	}
}

// A codec's failing Append is the producer's error too.
func TestPayloadAppendErrorIsProducerError(t *testing.T) {
	s, _, _, _ := pairSession(t, "test.nop")
	if err := s.Deliver("h1", exec.Edge{}, core.Buffer{Payload: refusedPayload{}, Size: 1}, 0); err == nil {
		t.Fatal("a payload whose codec refused it was delivered")
	}
	cause := s.rt.Err()
	if f := s.failFrame(cause); f.FailNet || f.FailHost != "" {
		t.Fatalf("failure reply implicates peer %q (FailNet %v): %s", f.FailHost, f.FailNet, f.Err)
	}
	if !strings.Contains(cause.Error(), "stream s: dist.refusedPayload payload: append refused") {
		t.Fatalf("session error %v does not name the stream, the type and the codec's error", cause)
	}
}
