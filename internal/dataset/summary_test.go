package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datacutter/internal/obs"
)

func sumTestMeta() Meta {
	return Meta{
		GX: 33, GY: 33, GZ: 25, BX: 3, BY: 3, BZ: 3,
		Timesteps: 2, Files: 4, Seed: 11, Plumes: 4,
	}
}

func TestSummarizeExact(t *testing.T) {
	s := Summarize([]float32{0.5, -1.25, 0, 3, 0, 0.5})
	if s.Min != -1.25 || s.Max != 3 {
		t.Fatalf("min/max = %g/%g, want -1.25/3", s.Min, s.Max)
	}
	if s.Occupancy != 4 {
		t.Fatalf("occupancy = %d, want 4", s.Occupancy)
	}
	if z := Summarize(nil); z != (ChunkSummary{}) {
		t.Fatalf("empty slice summary = %+v, want zero", z)
	}
}

// Create must write a sidecar whose entries are the exact min/max of every
// chunk record on disk — the tightness the pruning soundness rests on.
func TestCreateWritesTightSummaries(t *testing.T) {
	st, err := Create(t.TempDir(), sumTestMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ix := st.Summaries()
	if ix == nil {
		t.Fatal("created store has no summary index")
	}
	for ts := 0; ts < st.DS.Timesteps; ts++ {
		for c := 0; c < st.DS.Chunks(); c++ {
			v, err := st.ReadChunk(c, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := Summarize(v.Data)
			got, ok := ix.At(c, ts)
			if !ok || got != want {
				t.Fatalf("summary of chunk %d t%d = %+v ok=%v, want %+v", c, ts, got, ok, want)
			}
		}
	}
}

func TestSummaryIndexRoundTrip(t *testing.T) {
	ix := &SummaryIndex{Timesteps: 2, Chunks: 3, Entries: make([]ChunkSummary, 6)}
	for i := range ix.Entries {
		ix.Entries[i] = ChunkSummary{Min: float32(i) - 2, Max: float32(i), Occupancy: uint32(i * 7)}
	}
	enc := EncodeSummaryIndex(ix)
	dec, err := DecodeSummaryIndex(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Timesteps != ix.Timesteps || dec.Chunks != ix.Chunks {
		t.Fatalf("decoded shape %dx%d, want %dx%d", dec.Timesteps, dec.Chunks, ix.Timesteps, ix.Chunks)
	}
	for i := range ix.Entries {
		if dec.Entries[i] != ix.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, dec.Entries[i], ix.Entries[i])
		}
	}
	if !bytes.Equal(EncodeSummaryIndex(dec), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
}

// The decoder mirrors the wire-frame decoder's strictness: anything that is
// not exactly one well-formed index is rejected.
func TestDecodeSummaryIndexRejects(t *testing.T) {
	good := EncodeSummaryIndex(&SummaryIndex{Timesteps: 1, Chunks: 2, Entries: make([]ChunkSummary, 2)})
	cases := map[string][]byte{
		"empty":         {},
		"short header":  good[:summaryHdrLen-1],
		"bad magic":     append([]byte("XXSI"), good[4:]...),
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
	}
	badVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	cases["bad version"] = badVersion
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[8:], 1<<20)
	binary.LittleEndian.PutUint32(huge[12:], 1<<20)
	cases["oversized counts"] = huge
	for name, b := range cases {
		if _, err := DecodeSummaryIndex(b); err == nil {
			t.Errorf("%s: decoder accepted a malformed index", name)
		}
	}
	if _, err := DecodeSummaryIndex(good); err != nil {
		t.Fatalf("well-formed index rejected: %v", err)
	}
}

// A missing, torn, truncated, or foreign sidecar must degrade the store to
// no-pruning — never to an error, and never to a half-applied index.
func TestSidecarDegradation(t *testing.T) {
	m := sumTestMeta()
	chunks := func(st *Store) []int {
		all := make([]int, st.DS.Chunks())
		for i := range all {
			all[i] = i
		}
		return all
	}
	pred := IsoPredicate(100) // above every value: prunes everything when indexed

	corrupt := map[string]func(t *testing.T, dir string){
		"missing": func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, SummaryFile)); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, dir string) {
			p := filepath.Join(dir, SummaryFile)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"torn overwrite": func(t *testing.T, dir string) {
			p := filepath.Join(dir, SummaryFile)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			// A second index concatenated onto the first: the strict decoder's
			// trailing-bytes check must reject it wholesale.
			if err := os.WriteFile(p, append(raw, raw...), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, SummaryFile), []byte("not an index"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"foreign dataset": func(t *testing.T, dir string) {
			// A valid sidecar whose shape disagrees with the meta (copied in
			// from another dataset) must not drive pruning.
			other := &SummaryIndex{Timesteps: 1, Chunks: 1, Entries: make([]ChunkSummary, 1)}
			if err := WriteSummaryIndex(dir, other); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakIt := range corrupt {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			created, err := Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			created.Close()
			breakIt(t, dir)
			st, err := Open(dir)
			if err != nil {
				t.Fatalf("Open errored on a broken sidecar: %v", err)
			}
			defer st.Close()
			if ix := st.Summaries(); ix != nil {
				t.Fatal("broken sidecar produced a summary index")
			}
			all := chunks(st)
			got := st.Prune(all, 0, pred)
			if len(got) != len(all) {
				t.Fatalf("degraded store pruned %d chunks; must prune none", len(all)-len(got))
			}
			if _, err := st.ReadChunk(0, 0); err != nil {
				t.Fatalf("degraded store cannot read: %v", err)
			}
		})
	}
}

func TestPrunePredicates(t *testing.T) {
	st, err := Create(t.TempDir(), sumTestMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := make([]int, st.DS.Chunks())
	for i := range all {
		all[i] = i
	}

	// Empty predicate: the input slice itself comes back (no copy, no work).
	if got := st.Prune(all, 0, Predicate{}); len(got) != len(all) {
		t.Fatal("empty predicate pruned chunks")
	}

	// Geometry-only box pruning works without consulting summaries: keep the
	// chunks of one corner block of the domain.
	box := Predicate{Box: &Box{X0: 0, Y0: 0, Z0: 0, X1: 10, Y1: 10, Z1: 10}}
	got := st.Prune(all, 0, box)
	if len(got) == 0 || len(got) == len(all) {
		t.Fatalf("box predicate kept %d of %d chunks; want a proper subset", len(got), len(all))
	}
	for _, c := range got {
		if !box.MatchBlock(st.DS.Block(c)) {
			t.Fatalf("chunk %d survived the box predicate but does not intersect", c)
		}
	}

	// Impossible iso range (And of disjoint ranges): prunes everything.
	none := IsoPredicate(0.1).And(IsoPredicate(0.9))
	if got := st.Prune(all, 0, none); len(got) != 0 {
		t.Fatalf("empty-range predicate kept %d chunks", len(got))
	}

	// Pruning must never reorder or mutate the input.
	before := append([]int(nil), all...)
	st.Prune(all, 0, IsoPredicate(0.5))
	for i := range all {
		if all[i] != before[i] {
			t.Fatal("Prune mutated its input slice")
		}
	}
}

// Prune publishes its counters and a trace event through the observer.
func TestPruneObservability(t *testing.T) {
	st, err := Create(t.TempDir(), sumTestMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ring := obs.NewRingSink(64)
	reg := obs.NewRegistry()
	st.SetObserver(obs.New(ring, reg))
	all := make([]int, st.DS.Chunks())
	for i := range all {
		all[i] = i
	}
	kept := st.Prune(all, 1, IsoPredicate(100))
	if len(kept) != 0 {
		t.Fatalf("iso above global max kept %d chunks", len(kept))
	}
	if got := reg.Counter("dataset.chunks_pruned").Value(); got != int64(len(all)) {
		t.Fatalf("chunks_pruned = %d, want %d", got, len(all))
	}
	if reg.Counter("dataset.bytes_skipped").Value() == 0 {
		t.Fatal("bytes_skipped not recorded")
	}
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindPrune {
		t.Fatalf("expected one prune event, got %v", evs)
	}
	if evs[0].N != len(all) || evs[0].UOW != 1 || evs[0].Bytes == 0 {
		t.Fatalf("prune event fields wrong: %+v", evs[0])
	}
}

// Concurrent readers (pooled scratch buffers) must each decode exactly the
// chunk they asked for. Run under -race this also proves the lazy summary
// load is data-race free.
func TestConcurrentReadChunkAndPrune(t *testing.T) {
	st, err := Create(t.TempDir(), sumTestMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := make([][]float32, st.DS.Chunks())
	for c := range want {
		v, err := st.ReadChunk(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = append([]float32(nil), v.Data...)
	}
	all := make([]int, st.DS.Chunks())
	for i := range all {
		all[i] = i
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c := (g*13 + rep*7) % st.DS.Chunks()
				v, err := st.ReadChunk(c, 0)
				if err != nil {
					errs <- err
					return
				}
				for i, s := range v.Data {
					if s != want[c][i] {
						errs <- fmt.Errorf("torn concurrent read of chunk %d", c)
						return
					}
				}
				st.Prune(all, 0, IsoPredicate(0.5)) // races the lazy summary load
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BuildSummaryIndex (the datagen -reindex retrofit path) must reproduce the
// datagen-time sidecar exactly.
func TestBuildSummaryIndexMatchesCreate(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, sumTestMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rebuilt, err := BuildSummaryIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeSummaryIndex(rebuilt), raw) {
		t.Fatal("retrofit index differs from the datagen-time sidecar")
	}
}
