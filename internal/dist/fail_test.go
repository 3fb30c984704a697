package dist

import (
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/exec"
)

type nopFilter struct{ core.BaseFilter }

func (nopFilter) Process(core.Ctx) error { return nil }

func init() {
	RegisterFilter("test.nop", func([]byte) (core.Filter, error) { return nopFilter{}, nil })
}

// A killed worker's own links fail — a refused ring attach, a severed TCP
// conn — and that must not read as its healthy peer failing: the failure
// reply would make the coordinator mark the peer dead. Kill the sender,
// then deliver to the peer on each transport.
func TestKilledSenderDoesNotImplicatePeer(t *testing.T) {
	for _, transport := range []string{TransportRing, TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			w0, err := NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer w0.Close()
			w1, err := NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer w1.Close()
			go w1.Serve()

			s, err := newSession(w0, &setupMsg{
				Graph: GraphSpec{
					Filters: []FilterSpec{{Name: "S", Kind: "test.nop"}, {Name: "K", Kind: "test.nop"}},
					Streams: []core.StreamSpec{{Name: "s", From: "S", To: "K"}},
				},
				Placement: []PlacementEntry{{Filter: "S", Host: "h0", Copies: 1}, {Filter: "K", Host: "h1", Copies: 1}},
				Opts:      Options{Transport: transport},
				Addrs:     map[string]string{"h0": w0.Addr(), "h1": w1.Addr()},
				Host:      "h0",
			})
			if err != nil {
				t.Fatal(err)
			}
			w0.Kill()
			if err := s.Deliver("h1", exec.Edge{Stream: "s"}, core.Buffer{Payload: []byte{1}, Size: 1}, 0); err == nil {
				t.Fatal("a killed worker delivered a buffer")
			}
			if f := s.failFrame(s.rt.Err()); f != nil {
				t.Fatalf("killed worker replies %+v (implicating %q)", f, f.FailHost)
			}
		})
	}
}
