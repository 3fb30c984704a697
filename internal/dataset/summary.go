package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"datacutter/internal/volume"
)

// Chunk summaries are the storage tier's pruning index: one tiny record per
// (chunk, timestep) — the sample min/max plus an occupancy count — written
// at datagen time as a sidecar file next to the data files. A predicate
// (predicate.go) consults the summaries to discard chunks that provably
// cannot contribute to a query before any chunk byte is read, SkimROOT
// style: the selective part of the filter executes where the data lives and
// only surviving chunks cross the network.
//
// The sidecar is advisory. A store without one (older datasets, torn or
// truncated files) degrades to no-pruning — never to an error — because
// pruning is a correctness-critical optimization: a wrongly pruned chunk
// silently corrupts the result, while an unpruned one only costs I/O.

// ChunkSummary aggregates one chunk at one timestep.
type ChunkSummary struct {
	Min, Max float32
	// Occupancy counts nonzero samples — a sparsity measure for placement
	// and admission decisions; pruning soundness rests on Min/Max only.
	Occupancy uint32
}

// Summarize computes the summary of one sample slice.
func Summarize(data []float32) ChunkSummary {
	if len(data) == 0 {
		return ChunkSummary{}
	}
	s := ChunkSummary{Min: data[0], Max: data[0]}
	for _, v := range data {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		if v != 0 {
			s.Occupancy++
		}
	}
	return s
}

// SummaryIndex holds the summaries of every (chunk, timestep) record of a
// store, indexed [timestep*Chunks + chunk] (chunk ids are partition order,
// matching Dataset.Block).
type SummaryIndex struct {
	Timesteps int
	Chunks    int
	Entries   []ChunkSummary
}

// At returns the summary of chunk at timestep. ok=false when the index does
// not cover the pair (callers must then treat the chunk as unprunable).
func (ix *SummaryIndex) At(chunk, timestep int) (ChunkSummary, bool) {
	if ix == nil || chunk < 0 || chunk >= ix.Chunks || timestep < 0 || timestep >= ix.Timesteps {
		return ChunkSummary{}, false
	}
	return ix.Entries[timestep*ix.Chunks+chunk], true
}

// Sidecar format (little-endian, versioned):
//
//	magic "DCSI" | u32 version | u32 timesteps | u32 chunks
//	| timesteps*chunks x (f32 min, f32 max, u32 occupancy)
//
// The decoder is strict, mirroring the wire-frame decoder: counts are
// bounded before any allocation, and trailing bytes reject the file — a
// concatenated or half-overwritten sidecar must degrade to no-pruning, not
// silently half-apply.
const (
	// SummaryFile is the sidecar index filename inside a store directory.
	SummaryFile = "summary.idx"

	summaryMagic   = "DCSI"
	summaryVersion = 1
	summaryHdrLen  = 4 + 4 + 4 + 4
	summaryRecLen  = 4 + 4 + 4

	// maxSummaryEntries bounds timesteps*chunks at decode time so a hostile
	// header cannot force a huge allocation (64 Mi entries = 768 MiB of
	// index would describe a store far beyond anything this repo builds).
	maxSummaryEntries = 1 << 26
)

// EncodeSummaryIndex serializes an index in the sidecar format.
func EncodeSummaryIndex(ix *SummaryIndex) []byte {
	b := make([]byte, 0, summaryHdrLen+len(ix.Entries)*summaryRecLen)
	b = append(b, summaryMagic...)
	b = binary.LittleEndian.AppendUint32(b, summaryVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.Timesteps))
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.Chunks))
	for _, e := range ix.Entries {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(e.Min))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(e.Max))
		b = binary.LittleEndian.AppendUint32(b, e.Occupancy)
	}
	return b
}

// DecodeSummaryIndex parses a sidecar index, rejecting truncated bodies,
// trailing bytes, and counts that do not multiply out to the body length.
func DecodeSummaryIndex(b []byte) (*SummaryIndex, error) {
	if len(b) < summaryHdrLen {
		return nil, fmt.Errorf("dataset: summary index truncated (%d bytes)", len(b))
	}
	if string(b[:4]) != summaryMagic {
		return nil, fmt.Errorf("dataset: bad summary index magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != summaryVersion {
		return nil, fmt.Errorf("dataset: unsupported summary index version %d", v)
	}
	timesteps := binary.LittleEndian.Uint32(b[8:])
	chunks := binary.LittleEndian.Uint32(b[12:])
	n := uint64(timesteps) * uint64(chunks)
	if n > maxSummaryEntries {
		return nil, fmt.Errorf("dataset: summary index claims %d entries (max %d)", n, maxSummaryEntries)
	}
	want := summaryHdrLen + int(n)*summaryRecLen
	if len(b) != want {
		return nil, fmt.Errorf("dataset: summary index is %d bytes, want %d for %dx%d entries",
			len(b), want, timesteps, chunks)
	}
	ix := &SummaryIndex{
		Timesteps: int(timesteps),
		Chunks:    int(chunks),
		Entries:   make([]ChunkSummary, n),
	}
	off := summaryHdrLen
	for i := range ix.Entries {
		ix.Entries[i] = ChunkSummary{
			Min:       math.Float32frombits(binary.LittleEndian.Uint32(b[off:])),
			Max:       math.Float32frombits(binary.LittleEndian.Uint32(b[off+4:])),
			Occupancy: binary.LittleEndian.Uint32(b[off+8:]),
		}
		off += summaryRecLen
	}
	return ix, nil
}

// WriteSummaryIndex writes the sidecar into a store directory atomically
// (tmp + rename), so a crashed writer leaves either the old index or none —
// never a torn one.
func WriteSummaryIndex(dir string, ix *SummaryIndex) error {
	tmp := filepath.Join(dir, SummaryFile+".tmp")
	if err := os.WriteFile(tmp, EncodeSummaryIndex(ix), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, SummaryFile))
}

// BuildSummaryIndex computes the full index of an existing store by reading
// every chunk — the retrofit path (datagen -reindex) for datasets created
// before summaries existed, reading the files in parallel as Create writes
// them. Create computes summaries inline, without a second read pass.
func BuildSummaryIndex(st *Store) (*SummaryIndex, error) {
	ds := st.DS
	ix := newSummaryIndex(ds)
	err := ds.perFile(func(f int, w *worker) error {
		return w.records(ds, f, func(t, c int) error {
			v, err := st.ReadChunk(c, t)
			if err != nil {
				return fmt.Errorf("dataset: summarizing chunk %d t%d: %w", c, t, err)
			}
			ix.Entries[t*ix.Chunks+c] = Summarize(v.Data)
			volume.Recycle(v)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// newSummaryIndex returns an index of ds's shape with every entry zero.
func newSummaryIndex(ds *Dataset) *SummaryIndex {
	return &SummaryIndex{ds.Timesteps, ds.Chunks(), make([]ChunkSummary, ds.Timesteps*ds.Chunks())}
}
