package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"datacutter/internal/volume"
)

// FuzzSummaryIndex drives the sidecar decoder with arbitrary bytes. The
// decoder guards the pruning path: it must never panic or over-allocate
// whatever the header claims (hostile counts, truncation, trailing bytes are
// all in the seed corpus), and any index it does accept must re-encode to
// the exact input bytes — the codec admits no non-canonical encodings, so a
// torn or concatenated sidecar can never half-apply.
func FuzzSummaryIndex(f *testing.F) {
	seed := func(ix *SummaryIndex) { f.Add(EncodeSummaryIndex(ix)) }
	seed(&SummaryIndex{Timesteps: 0, Chunks: 0})
	seed(&SummaryIndex{Timesteps: 1, Chunks: 1, Entries: []ChunkSummary{{Min: 0.05, Max: 1.1, Occupancy: 7}}})
	seed(&SummaryIndex{Timesteps: 2, Chunks: 3, Entries: []ChunkSummary{
		{Min: -1, Max: 2, Occupancy: 0},
		{Min: float32(math.Inf(-1)), Max: float32(math.Inf(1)), Occupancy: 1},
		{Min: float32(math.NaN()), Max: float32(math.NaN()), Occupancy: 2},
		{}, {Min: 0.5, Max: 0.5}, {Min: 3, Max: -3, Occupancy: 4096},
	}})

	// Hostile headers (also committed under testdata/fuzz/FuzzSummaryIndex).
	hdr := func(magic string, version, timesteps, chunks uint32, body int) []byte {
		b := append([]byte(magic), make([]byte, 12+body)...)
		binary.LittleEndian.PutUint32(b[4:], version)
		binary.LittleEndian.PutUint32(b[8:], timesteps)
		binary.LittleEndian.PutUint32(b[12:], chunks)
		return b
	}
	f.Add([]byte{})                                                                            // empty
	f.Add([]byte("DCS"))                                                                       // shorter than magic
	f.Add(hdr("XXXX", 1, 1, 1, 12))                                                            // bad magic
	f.Add(hdr("DCSI", 2, 1, 1, 12))                                                            // future version
	f.Add(hdr("DCSI", 1, 0xFFFFFFFF, 0xFFFFFFFF, 0))                                           // count overflow
	f.Add(hdr("DCSI", 1, 1, maxSummaryEntries, 0))                                             // huge allocation claim
	f.Add(hdr("DCSI", 1, 1, 2, summaryRecLen))                                                 // body shorter than counts
	f.Add(hdr("DCSI", 1, 1, 1, summaryRecLen+1))                                               // trailing byte
	f.Add(append(hdr("DCSI", 1, 1, 1, summaryRecLen), hdr("DCSI", 1, 1, 1, summaryRecLen)...)) // concatenated

	f.Fuzz(func(t *testing.T, in []byte) {
		ix, err := DecodeSummaryIndex(in)
		if err != nil {
			return
		}
		if got := len(ix.Entries); got != ix.Timesteps*ix.Chunks {
			t.Fatalf("accepted index has %d entries for %dx%d", got, ix.Timesteps, ix.Chunks)
		}
		if re := EncodeSummaryIndex(ix); !bytes.Equal(re, in) {
			t.Fatalf("accepted index does not round-trip:\n got  %x\n want %x", re, in)
		}
		// Every in-range lookup must succeed and every out-of-range one fail,
		// whatever the decoded shape.
		if _, ok := ix.At(ix.Chunks, 0); ok {
			t.Fatal("At accepted an out-of-range chunk")
		}
		if ix.Chunks > 0 && ix.Timesteps > 0 {
			if _, ok := ix.At(ix.Chunks-1, ix.Timesteps-1); !ok {
				t.Fatal("At rejected an in-range pair")
			}
		}
	})
}

// FuzzPredicateJSON decodes arbitrary bytes as a Predicate, as a worker
// does with the one in a session's setup frame. Whatever decodes must
// evaluate without panicking against hostile summaries (NaN and infinite
// ranges, inverted bounds) and blocks (an empty one among them), and must
// survive a Marshal/Unmarshal round trip with identical verdicts.
func FuzzPredicateJSON(f *testing.F) {
	for _, s := range []string{
		`{}`, `null`, `{"iso":null,"box":null}`,
		`{"iso":{"Lo":0.5,"Hi":0.5}}`,
		`{"iso":{"Lo":1,"Hi":0}}`,                             // inverted: matches nothing
		`{"iso":{"Lo":-0,"Hi":3.4028235e38}}`,                 // -0 and the largest float32
		`{"iso":{"Lo":1e39}}`,                                 // overflows float32
		`{"box":{"X0":4,"Y0":0,"Z0":0,"X1":4,"Y1":9,"Z1":9}}`, // empty box
		`{"box":{"X0":9,"X1":-9223372036854775808,"Y1":9223372036854775807}}`,
		`{"iso":{"Lo":0.2,"Hi":0.9},"box":{"X1":16,"Y1":16,"Z1":8}}`,
		`{"iso":{"Lo":"NaN"}}`, `[1,2]`, `{"iso":{"Lo":0.5,"Hi":0.5}} trailing`,
	} {
		f.Add([]byte(s))
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	summaries := []ChunkSummary{
		{}, {Min: 0.1, Max: 0.9, Occupancy: 7},
		{Min: nan, Max: nan}, {Min: nan, Max: 1}, {Min: 0, Max: nan},
		{Min: -inf, Max: inf}, {Min: inf, Max: -inf}, {Min: 3, Max: -3},
		{Min: float32(math.Copysign(0, -1)), Max: 0},
	}
	blocks := []volume.Block{
		{}, // an empty block
		{X0: 0, Y0: 0, Z0: 0, NX: 4, NY: 4, NZ: 4},
		{X0: 12, Y0: 4, Z0: 2, NX: 5, NY: 5, NZ: 3},
		{X0: -8, Y0: -8, Z0: -8, NX: 1 << 40, NY: 1 << 40, NZ: 1 << 40},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var p Predicate
		if json.Unmarshal(in, &p) != nil {
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("decoded predicate %v does not re-encode: %v", p, err)
		}
		var q Predicate
		if err := json.Unmarshal(out, &q); err != nil {
			t.Fatalf("re-encoded predicate %s does not decode: %v", out, err)
		}
		if p.String() != q.String() {
			t.Fatalf("round trip changed %v into %v", p, q)
		}
		// The filters evaluate the predicate ANDed with the view's iso-value.
		for _, pred := range [][2]Predicate{{p, q}, {p.And(IsoPredicate(0.5)), q.And(IsoPredicate(0.5))}} {
			for _, s := range summaries {
				if a, b := pred[0].MatchSummary(s), pred[1].MatchSummary(s); a != b {
					t.Fatalf("%v matches %+v: %v before the round trip, %v after", pred[0], s, a, b)
				}
			}
			for _, b := range blocks {
				if x, y := pred[0].MatchBlock(b), pred[1].MatchBlock(b); x != y {
					t.Fatalf("%v matches block %+v: %v before the round trip, %v after", pred[0], b, x, y)
				}
			}
		}
	})
}
