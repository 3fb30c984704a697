package dist

import (
	"testing"

	"datacutter/internal/exec"
)

// BenchmarkWireCodec measures frame encode + decode (+ payload decode) per
// op. The binary/* cases are the data plane; control-session is the control
// plane: the ten control frames of a one-UOW session, each direction on a
// fresh per-connection gob stream, as one op.
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
			buf, err = w.appendFrame(buf[:0], dataFrame(exec.Edge{UOW: 1}, 4, len(payload)*4, payload))
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

	b.Run("binary/ack", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var w frameWriter
		var r frameReader
		f := &frame{Kind: kindAck, UOWIdx: 1, Target: 2, Copy: 3, AckN: 4}
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
