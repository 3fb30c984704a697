package dist

import (
	"bytes"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"

	"datacutter/internal/exec"
)

// roundTrip encodes f on a fresh stream and decodes the result with a fresh
// reader.
func roundTrip(t *testing.T, f *frame) *frame {
	t.Helper()
	var w frameWriter
	body, err := w.appendFrame(nil, f)
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	var r frameReader
	g, err := r.decodeFrame(body)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	return g
}

func TestDataFrameRoundTrip(t *testing.T) {
	f := dataFrame(exec.Edge{UOW: 3, Stream: 5, From: 7, Target: 2}, 4, 1234, []float32{1, 2.5, -3})
	g := roundTrip(t, f)
	if g.Kind != kindData || g.UOWIdx != 3 || g.Stream != 5 ||
		g.Copy != 7 || g.Target != 2 || g.AckN != 4 || g.Size != 1234 {
		t.Fatalf("header fields mangled: %+v", g)
	}
	if g.Codec != CodecFloat32s {
		t.Fatalf("codec id = %d, want %d", g.Codec, CodecFloat32s)
	}
	v, rel, err := decodePayload(g)
	if err != nil {
		t.Fatalf("decodePayload: %v", err)
	}
	if rel != nil {
		t.Fatal("float32s codec is copying; release must be nil")
	}
	if got := v.([]float32); !reflect.DeepEqual(got, []float32{1, 2.5, -3}) {
		t.Fatalf("payload = %v", got)
	}
}

func TestBytesPayloadZeroCopy(t *testing.T) {
	f := dataFrame(exec.Edge{}, 0, 4, []byte{9, 8, 7, 6})
	g := roundTrip(t, f)
	if g.Codec != CodecBytes {
		t.Fatalf("codec id = %d, want %d", g.Codec, CodecBytes)
	}
	released := false
	g.rel = func() { released = true }
	v, rel, err := decodePayload(g)
	if err != nil {
		t.Fatalf("decodePayload: %v", err)
	}
	if !bytes.Equal(v.([]byte), []byte{9, 8, 7, 6}) {
		t.Fatalf("payload = %v", v)
	}
	if rel == nil {
		t.Fatal("bytes codec is zero-copy; caller must get the release")
	}
	if released {
		t.Fatal("released before the consumer finished")
	}
	rel()
	if !released {
		t.Fatal("release did not fire")
	}
}

func TestAckAndDoneRoundTrip(t *testing.T) {
	a := roundTrip(t, &frame{Kind: kindAck, UOWIdx: 9, Stream: 65535, Target: 1, Copy: 3, AckN: 4})
	if a.Kind != kindAck || a.UOWIdx != 9 || a.Stream != 65535 || a.Target != 1 || a.Copy != 3 || a.AckN != 4 {
		t.Fatalf("ack mangled: %+v", a)
	}
	d := roundTrip(t, &frame{Kind: kindProducerDone, UOWIdx: 2, Stream: 1})
	if d.Kind != kindProducerDone || d.UOWIdx != 2 || d.Stream != 1 {
		t.Fatalf("done mangled: %+v", d)
	}
	h := roundTrip(t, &frame{Kind: kindHello, Job: 6, SetupID: 1 << 63})
	if h.Kind != kindHello || h.Job != 6 || h.SetupID != 1<<63 {
		t.Fatalf("hello mangled: %+v", h)
	}
}

func TestControlFrameRoundTrip(t *testing.T) {
	f := &frame{Kind: kindRunUOW, UOW: &uowMsg{Index: 3, Work: []byte{1, 2}}}
	g := roundTrip(t, f)
	if g.Kind != kindRunUOW || g.UOW == nil || g.UOW.Index != 3 || !bytes.Equal(g.UOW.Work, []byte{1, 2}) {
		t.Fatalf("control frame mangled: %+v", g)
	}
	s := &frame{Kind: kindSetup, Setup: &setupMsg{
		Host:  "host1",
		Addrs: map[string]string{"host1": "127.0.0.1:1"},
		Opts:  Options{Policy: "DD", QueueCap: 3},
	}}
	g = roundTrip(t, s)
	if g.Setup == nil || g.Setup.Host != "host1" || g.Setup.Opts.QueueCap != 3 {
		t.Fatalf("setup frame mangled: %+v", g.Setup)
	}
}

// Golden wire fixtures: the binary data plane's byte layout is a
// compatibility contract (DESIGN.md "Wire protocol"). An accidental format
// change must fail here loudly, not surface as cross-version corruption.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		f    *frame
		hex  string
	}{
		{
			name: "data-float32s",
			f:    dataFrame(exec.Edge{UOW: 1, Stream: 2, From: 2, Target: 3}, 4, 24, []float32{1, -2}),
			hex:  "0b01000000" + "0200" + "0300000002000000040000001800000002000c000000020000000000803f000000c0",
		},
		{
			name: "data-bytes",
			f:    dataFrame(exec.Edge{}, 0, 3, []byte{0xDE, 0xAD, 0xBF}),
			hex:  "0b00000000" + "0000" + "00000000000000000000000003000000010003000000deadbf",
		},
		{
			name: "ack",
			f:    &frame{Kind: kindAck, UOWIdx: 1, Stream: 2, Target: 2, Copy: 3, AckN: 4},
			hex:  "0c01000000" + "0200" + "020000000300000004000000",
		},
		{
			name: "producer-done",
			f:    &frame{Kind: kindProducerDone, UOWIdx: 7, Stream: 1},
			hex:  "0d07000000" + "0100",
		},
		{
			name: "hello",
			f:    &frame{Kind: kindHello, Job: 7, SetupID: 0x0102030405060708},
			hex:  "01" + "0700000000000000" + "0807060504030201",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w frameWriter
			body, err := w.appendFrame(nil, tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(body); got != tc.hex {
				t.Fatalf("wire bytes changed:\n got  %s\n want %s", got, tc.hex)
			}
			var r frameReader
			if _, err := r.decodeFrame(body); err != nil {
				t.Fatalf("golden bytes no longer decode: %v", err)
			}
		})
	}
}

// Every frame kind keeps its byte value. 4-7, the retired per-phase kinds,
// and 16-17, the retired abort and abort-confirmation kinds, stay unused: a
// frame of one of them is an unknown kind.
func TestFrameKindValuesPinned(t *testing.T) {
	kinds := []struct {
		k    frameKind
		want int
	}{
		{kindHello, 1}, {kindSetup, 2}, {kindSetupOK, 3}, {kindRunUOW, 8}, {kindUOWDone, 9},
		{kindShutdown, 10}, {kindData, 11}, {kindAck, 12}, {kindProducerDone, 13},
		{kindFail, 14}, {kindHeartbeat, 15}, {kindShutdownDone, 18},
	}
	for _, c := range kinds {
		if int(c.k) != c.want {
			t.Errorf("kind %d, want %d", c.k, c.want)
		}
	}
	for _, unused := range []byte{4, 5, 6, 7, 16, 17} {
		var r frameReader
		if _, err := r.decodeFrame([]byte{unused}); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Errorf("kind byte %d: err = %v, want an unknown kind", unused, err)
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	var w frameWriter
	valid, err := w.appendFrame(nil, dataFrame(exec.Edge{UOW: 1, Stream: 2, From: 2, Target: 3}, 4, 24, []float32{1, -2}))
	if err != nil {
		t.Fatal(err)
	}
	var r frameReader
	for cut := 0; cut < len(valid); cut++ {
		if _, err := r.decodeFrame(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
	if _, err := r.decodeFrame([]byte{0xFF, 0, 0}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Payload length header disagreeing with the body must be rejected.
	mangled := append([]byte(nil), valid...)
	mangled[len(mangled)-13]++ // high byte of the payload length field
	if _, err := r.decodeFrame(mangled); err == nil {
		t.Fatal("mismatched payload length accepted")
	}
}

// Each case gets a fresh reader: a reader's first error is sticky.
func TestReadWireFrameLimits(t *testing.T) {
	read := func(in []byte) error {
		var r frameReader
		_, _, err := r.readWireFrame(bytes.NewReader(in))
		return err
	}
	// Oversized length prefix: rejected before any allocation.
	if err := read([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != errFrameTooLarge {
		t.Fatalf("oversized prefix: err = %v", err)
	}
	// Zero-length prefix is invalid (frames always carry a kind byte).
	if err := read([]byte{0, 0, 0, 0}); err != errFrameTooLarge {
		t.Fatalf("zero prefix: err = %v", err)
	}
	// Truncated stream: frame announces more bytes than arrive.
	if err := read([]byte{16, 0, 0, 0, byte(kindHello)}); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v", err)
	}
}
