package dist

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// The gob baseline ships []float32 through the fallback, which needs the
// concrete type registered (the codec fast path does not).
func init() { RegisterPayload([]float32{}) }

// BenchmarkWireCodec measures frame encode + decode (+ payload decode) per
// op. The binary/* cases are today's data plane. The gob/* cases replicate
// the data plane it replaced: one persistent gob encoder/decoder pair per
// connection carrying whole frame structs, each payload gob-encoded
// separately into the frame's bytes (encodeAny/decodeAny; the gob fallback,
// appendGob, still writes that payload format). control-session is today's
// control plane: the ten control frames of a one-UOW session, each
// direction on a fresh per-connection gob stream, as one op.
func BenchmarkWireCodec(b *testing.B) {
	payload := make([]float32, 4096)
	for i := range payload {
		payload[i] = float32(i) * 0.5
	}

	b.Run("binary/float32s", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(4 * len(payload)))
		var buf []byte
		var w frameWriter
		var r frameReader
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = w.appendFrame(buf[:0], dataFrame(1, 1, "floats", 0, 0, 4, len(payload)*4, payload))
			if err != nil {
				b.Fatal(err)
			}
			f, err := r.decodeFrame(buf)
			if err != nil {
				b.Fatal(err)
			}
			v, _, err := decodePayload(f)
			if err != nil {
				b.Fatal(err)
			}
			if len(v.([]float32)) != len(payload) {
				b.Fatal("payload mangled")
			}
		}
	})

	b.Run("gob/float32s", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(4 * len(payload)))
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		for i := 0; i < b.N; i++ {
			raw, err := encodeAny(payload)
			if err != nil {
				b.Fatal(err)
			}
			f := &frame{Kind: kindData, UOWIdx: 1, Stream: "floats", AckN: 4,
				Size: len(payload) * 4, Payload: raw}
			if err := enc.Encode(f); err != nil {
				b.Fatal(err)
			}
			var g frame
			if err := dec.Decode(&g); err != nil {
				b.Fatal(err)
			}
			v, err := decodeAny(g.Payload)
			if err != nil {
				b.Fatal(err)
			}
			if len(v.([]float32)) != len(payload) {
				b.Fatal("payload mangled")
			}
		}
	})

	b.Run("binary/ack", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var w frameWriter
		var r frameReader
		f := &frame{Kind: kindAck, UOWIdx: 1, Stream: "floats", Target: 2, Copy: 3, AckN: 4}
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = w.appendFrame(buf[:0], f)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.decodeFrame(buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("gob/ack", func(b *testing.B) {
		b.ReportAllocs()
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		f := &frame{Kind: kindAck, UOWIdx: 1, Stream: "floats", Target: 2, Copy: 3, AckN: 4}
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(f); err != nil {
				b.Fatal(err)
			}
			var g frame
			if err := dec.Decode(&g); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("control-session", func(b *testing.B) {
		b.ReportAllocs()
		down, up := controlSession()
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, frames := range [][]*frame{down, up} {
				var w frameWriter
				var r frameReader
				for _, f := range frames {
					var err error
					if buf, err = w.appendFrame(buf[:0], f); err != nil {
						b.Fatal(err)
					}
					if _, err := r.decodeFrame(buf); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}
