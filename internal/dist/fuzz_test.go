package dist

import (
	"bytes"
	"testing"

	"datacutter/internal/exec"
)

// FuzzDecodeFrame drives the wire-frame reader with arbitrary byte streams.
// The decoder must never panic or over-allocate, whatever the length prefix
// claims (truncated, zero, or oversized prefixes are all in the seed
// corpus), and any frame it does accept must re-encode to the same bytes.
// Every accepted data frame's payload then goes through decodePayload: a
// codec id this process has no codec for (0 included) is an error, never a
// panic.
func FuzzDecodeFrame(f *testing.F) {
	// Well-formed frames of each data-plane kind, plus a control frame —
	// the first on its stream, so it carries the type descriptors.
	seed := func(fr *frame) {
		var w frameWriter
		body, err := w.appendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		var hdr [4]byte
		putU32(hdr[:], len(body))
		f.Add(append(hdr[:], body...))
	}
	seed(dataFrame(exec.Edge{UOW: 1, Stream: 2, From: 2, Target: 3}, 4, 24, []float32{1, -2}))
	seed(dataFrame(exec.Edge{}, 0, 3, []byte{0xDE, 0xAD, 0xBF}))
	seed(&frame{Kind: kindData, Size: 3, Codec: 0, Payload: []byte{1, 2, 3}})
	seed(&frame{Kind: kindAck, UOWIdx: 1, Stream: 2, Target: 2, Copy: 3, AckN: 4})
	seed(&frame{Kind: kindProducerDone, UOWIdx: 7, Stream: 1})
	seed(&frame{Kind: kindHello, Job: 7, SetupID: 0x0102030405060708})
	seed(&frame{Kind: kindRunUOW, UOW: &uowMsg{Index: 3, Work: []byte{1, 2}}})
	// Hostile prefixes (also committed under testdata/fuzz/FuzzDecodeFrame).
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // oversized length
	f.Add([]byte{0, 0, 0, 0})                        // zero length
	f.Add([]byte{16, 0, 0, 0, byte(kindHello)})      // truncated body
	f.Add([]byte{1, 0, 0})                           // truncated prefix
	f.Add([]byte{5, 0, 0, 0, byte(kindData), 1, 0})  // truncated data header
	f.Add([]byte{0, 0, 0, 1, byte(kindShutdown), 9}) // 16 MiB prefix, 2 bytes

	f.Fuzz(func(t *testing.T, in []byte) {
		var r frameReader
		rd := bytes.NewReader(in)
		for i := 0; i < 64; i++ { // bound multi-frame streams
			fr, _, err := r.readWireFrame(rd)
			if err != nil {
				return
			}
			// Accepted frames on the binary plane must round-trip
			// byte-identically (FuzzControlStream covers control frames:
			// gob's map ordering is not canonical).
			switch fr.Kind {
			case kindData, kindAck, kindProducerDone, kindHello:
				var w frameWriter
				re, err := w.appendFrame(nil, fr)
				if err != nil {
					t.Fatalf("re-encoding accepted frame: %v", err)
				}
				pos := int(rd.Size()) - rd.Len()
				if got := in[pos-len(re) : pos]; !bytes.Equal(re, got) {
					t.Fatalf("re-encode mismatch:\n got  %x\n want %x", re, got)
				}
			}
			if fr.Kind != kindData {
				continue
			}
			// decodePayload owns the pooled buffer from here (rel is fr.rel).
			_, release, err := decodePayload(fr)
			if err == nil && codecs.Load().byID[fr.Codec] == nil {
				t.Fatalf("payload with unknown codec id %d decoded", fr.Codec)
			}
			if release != nil {
				release()
			}
		}
	})
}

// putU32 writes v little-endian; small helper so seeds read clearly.
func putU32(b []byte, v int) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
