package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/exec"
	"datacutter/internal/leakcheck"
)

// SessionGraph and SessionWork are what controlSession's setup and
// unit-of-work frames carry. The external test package sets them to an
// isoviz query: isoviz imports dist, so this package cannot build one.
var (
	SessionGraph GraphSpec
	SessionWork  RawUOW
)

// controlSession returns the control frames of a one-UOW session in send
// order, coordinator -> worker (down) and worker -> coordinator (up).
func controlSession() (down, up []*frame) {
	down = []*frame{
		{Kind: kindSetup, Setup: &setupMsg{
			Graph: SessionGraph,
			Placement: []PlacementEntry{
				{Filter: "RE", Host: "node0", Copies: 2},
				{Filter: "Ra", Host: "node1", Copies: 2},
				{Filter: "M", Host: "node1", Copies: 1},
			},
			Opts:  Options{JobID: 7, Policy: "DD", Transport: "tcp"},
			Addrs: map[string]string{"node0": "127.0.0.1:40001", "node1": "127.0.0.1:40002"},
			Host:  "node1",
		}},
		{Kind: kindRunUOW, UOW: &uowMsg{Work: SessionWork}},
		{Kind: kindShutdown},
	}
	up = []*frame{
		{Kind: kindSetupOK},
		{Kind: kindUOWDone, Stats: statsFragment(0.0123)},
		{Kind: kindShutdownDone},
	}
	return down, up
}

// statsFragment is one host's accounting of a unit of work in the shape
// Runtime.RunUOW returns it.
func statsFragment(busy float64) *core.Stats {
	st := exec.NewStats([]string{"RE", "Ra", "M"}, []core.StreamSpec{
		{Name: "triangles", From: "RE", To: "Ra"},
		{Name: "pixels", From: "Ra", To: "M"},
	})
	px := st.Streams["pixels"]
	px.Buffers, px.Bytes, px.Acks = 40, 600_000, 10
	px.PerTargetHost["node1"] = 40
	*st.Filters["Ra"] = core.FilterStats{
		Copies: 2, BuffersIn: 60, BuffersOut: 40,
		BusySeconds: []float64{busy, 0.004}, WallSeconds: []float64{0.011, 0.012},
		ReadBlockedSeconds: []float64{0.005, 0.006}, WriteBlockedSeconds: []float64{0.001, 0.002},
	}
	*st.Filters["M"] = core.FilterStats{
		Copies: 1, BuffersIn: 40,
		BusySeconds: []float64{0.002}, WallSeconds: []float64{0.012},
		ReadBlockedSeconds: []float64{0.01}, WriteBlockedSeconds: []float64{0},
	}
	return st
}

// wireBytes frames bodies with their u32 length prefixes, as conn.send does.
func wireBytes(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// encodeStream encodes frames in order on one fresh stream.
func encodeStream(t testing.TB, frames []*frame) [][]byte {
	t.Helper()
	var w frameWriter
	bodies := make([][]byte, len(frames))
	for i, f := range frames {
		b, err := w.appendFrame(nil, f)
		if err != nil {
			t.Fatalf("encoding frame %d (kind %d): %v", i, f.Kind, err)
		}
		bodies[i] = b
	}
	return bodies
}

// The frame type's descriptors cross a stream once: every control frame
// after the first is just its value, and it decodes only on the stream
// that carried the descriptors.
func TestControlStreamDescriptorsOnce(t *testing.T) {
	down, up := controlSession()
	for _, frames := range [][]*frame{down, up} {
		bodies := encodeStream(t, frames)
		var r frameReader
		for i, b := range bodies {
			g, err := r.decodeFrame(b)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(g, frames[i]) {
				t.Fatalf("frame %d mangled:\n got  %+v\n want %+v", i, g, frames[i])
			}
		}
		// The same frame alone on a fresh stream carries the descriptors.
		alone := encodeStream(t, frames[1:2])[0]
		if len(bodies[1]) >= len(alone) {
			t.Errorf("kind %d: %d bytes on a warm stream, %d on a fresh one", frames[1].Kind, len(bodies[1]), len(alone))
		}
		var fresh frameReader
		if _, err := fresh.decodeFrame(bodies[1]); !errors.Is(err, errControlStream) {
			t.Errorf("a value without its stream's descriptors decoded: err = %v", err)
		}
	}
}

// TestControlStreamConcurrentSenders: control frames from concurrent
// senders on one conn (a worker's phase replies, its control loop, the
// coordinator's broadcast) arrive decodable, complete, and in each
// sender's order — encode and queue are one step under conn.ctl.
func TestControlStreamConcurrentSenders(t *testing.T) {
	leakcheck.Check(t)
	const senders, each, rounds = 4, 25, 32
	// mk is sender k's m-th frame; Target and UOWIdx tag it.
	mk := func(k, m int) *frame {
		f := &frame{Target: k, UOWIdx: m}
		switch m % 3 {
		case 0:
			f.Kind = kindRunUOW
			f.UOW = &uowMsg{Index: m, Work: []byte(fmt.Sprintf("s%d", k))}
		case 1:
			f.Kind = kindUOWDone
			f.Stats = statsFragment(float64(k*1000 + m))
		case 2:
			f.Kind, f.FailNet = kindFail, true
			f.Err, f.FailHost = fmt.Sprintf("sender %d frame %d", k, m), fmt.Sprintf("host%d", k)
		}
		return f
	}
	// Every round is a fresh connection, so the race for the frame that
	// carries the descriptors is run again.
	for round := 0; round < rounds; round++ {
		cc, sc := tcpPair(t)
		c, s := newConn(cc, nil), newConn(sc, nil)
		start := make(chan struct{})
		errs := make(chan error, senders)
		var wg sync.WaitGroup
		for k := 0; k < senders; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				for m := 0; m < each; m++ {
					if err := c.send(mk(k, m)); err != nil {
						errs <- err
						return
					}
				}
			}(k)
		}
		close(start)
		next := make([]int, senders)
		for i := 0; i < senders*each; i++ {
			g, err := s.recv()
			if err != nil {
				t.Fatalf("round %d: frame %d: %v", round, i, err)
			}
			k := g.Target
			if k < 0 || k >= senders || g.UOWIdx != next[k] {
				t.Fatalf("round %d: frame %d tagged sender %d seq %d, want seq %v", round, i, k, g.UOWIdx, next)
			}
			if want := mk(k, next[k]); !reflect.DeepEqual(g, want) {
				t.Fatalf("round %d: sender %d frame %d mangled:\n got  %+v\n want %+v", round, k, next[k], g, want)
			}
			next[k]++
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		c.close()
		s.close()
	}
}

// A corrupt control frame — a flipped byte, or bytes left over after the
// value — fails the connection with a typed error, never a panic, and no
// later frame on it is accepted.
func TestControlStreamCorruptionFailsConn(t *testing.T) {
	leakcheck.Check(t)
	down, _ := controlSession()
	bodies := encodeStream(t, down)
	setup, next := bodies[0], bodies[1]

	t.Run("every flipped byte", func(t *testing.T) {
		// Byte 0 is the kind; the rest is the gob stream. A flip may still
		// decode (say, inside a string); an error must be typed and sticky.
		failed := 0
		for i := 1; i < len(setup); i++ {
			bad := append([]byte(nil), setup...)
			bad[i] ^= 0xFF
			var r frameReader
			rd := bytes.NewReader(wireBytes(bad, next, next))
			var err error
			for err == nil {
				_, _, err = r.readWireFrame(rd)
			}
			if err == io.EOF {
				continue // all three frames decoded
			}
			if !errors.Is(err, errControlStream) {
				t.Fatalf("flip at %d: untyped error %v", i, err)
			}
			failed++
			if _, _, again := r.readWireFrame(bytes.NewReader(wireBytes(next))); again == nil {
				t.Fatalf("flip at %d: a frame was accepted after %v", i, err)
			}
		}
		if failed == 0 {
			t.Fatal("no flipped byte was detected")
		}
		t.Logf("%d of %d flips failed the stream", failed, len(setup)-1)
	})

	// The kindShutdown value is one short gob message: its first byte
	// after the kind is the message length, and one more reads past the
	// frame body's end.
	fin := bodies[2]
	if fin[1] >= 0x7F {
		t.Fatalf("shutdown frame's gob message is %d bytes, want a one-byte length", fin[1])
	}
	cases := map[string][]byte{
		"flipped length": append([]byte{fin[0], fin[1] + 1}, fin[2:]...),
		"trailing bytes": append(append([]byte(nil), fin...), 0),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			cc, sc := tcpPair(t)
			s := newConn(sc, nil)
			defer s.close()
			if _, err := cc.Write(wireBytes(setup, next, bad)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := s.recv(); err != nil {
					t.Fatalf("valid frame %d: %v", i, err)
				}
			}
			_, err := s.recv()
			if !errors.Is(err, errControlStream) {
				t.Fatalf("recv: err = %v, want errControlStream", err)
			}
			if name == "trailing bytes" && !errors.Is(err, errTrailingBytes) {
				t.Fatalf("recv: err = %v, want errTrailingBytes", err)
			}
			// A well-formed frame behind the corrupt one is refused too.
			if _, err := cc.Write(wireBytes([]byte{byte(kindHeartbeat)})); err != nil {
				t.Fatal(err)
			}
			if f, again := s.recv(); again == nil {
				t.Fatalf("accepted kind %d after a corrupt control frame", f.Kind)
			}
		})
	}
}

// sameFrame is reflect.DeepEqual up to what a gob stream cannot carry: an
// empty slice arrives as nil, and a NaN equals itself bit for bit. Hostile
// input can encode both, so the fuzzer compares with this.
func sameFrame(a, b *frame) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameValue(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Func, reflect.Interface:
		return a.IsNil() && b.IsNil() // a frame's rel and payloadVal; never on the control stream
	}
	panic(fmt.Sprintf("sameValue: unhandled kind %v", a.Kind()))
}

// FuzzControlStream feeds arbitrary bytes, split into length-prefixed
// frames, to one frameReader. It must never panic; decoding stops at the
// first error; and every accepted control frame, re-encoded on a fresh
// stream pair, decodes to the same frame. The seeds are the two control
// streams of a one-UOW session.
func FuzzControlStream(f *testing.F) {
	down, up := controlSession()
	f.Add(wireBytes(encodeStream(f, down)...))
	f.Add(wireBytes(encodeStream(f, up)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		var r frameReader
		rd := bytes.NewReader(in)
		for i := 0; i < 64 && rd.Len() > 0; i++ {
			fr, rel, err := r.readWireFrame(rd)
			if err != nil {
				if _, _, again := r.readWireFrame(bytes.NewReader(wireBytes([]byte{byte(kindHeartbeat)}))); again == nil {
					t.Fatalf("decoding resumed after %v", err)
				}
				return
			}
			if rel != nil {
				rel()
			}
			if !fr.Kind.control() {
				continue
			}
			var w frameWriter
			body, err := w.appendFrame(nil, fr)
			if err != nil {
				t.Fatalf("re-encoding accepted kind %d frame: %v", fr.Kind, err)
			}
			var fresh frameReader
			g, err := fresh.decodeFrame(body)
			if err != nil {
				t.Fatalf("re-encoded kind %d frame does not decode: %v", fr.Kind, err)
			}
			if !sameFrame(fr, g) {
				t.Fatalf("kind %d frame changed in a round trip:\n got  %+v\n want %+v", fr.Kind, g, fr)
			}
		}
	})
}
