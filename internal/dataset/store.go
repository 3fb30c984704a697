package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"datacutter/internal/obs"
	"datacutter/internal/volume"
	"datacutter/internal/wirebin"
)

// Store is an on-disk chunked dataset: one binary file per declustering
// file, holding each assigned chunk's raw samples for every timestep, plus
// a meta.json. Record layout is fully determined by the Meta (chunks appear
// in Hilbert order, grouped by timestep), so no per-record index is needed.
type Store struct {
	Dir string
	DS  *Dataset
	// offsets[file] maps (timestep, position-within-file) to byte offset.
	offsets [][]int64
	perFile [][]int // chunk ids per file, Hilbert order

	// Open file handles, one per data file, opened lazily and kept for the
	// store's lifetime (reads use ReadAt, so one handle serves concurrent
	// readers).
	mu      sync.Mutex
	handles []*os.File

	// scratch recycles per-read raw chunk buffers. A sync.Pool (rather than
	// a single buffer) keeps ReadChunk safe for concurrent readers — each
	// in-flight read owns its buffer and returns it when done.
	scratch sync.Pool

	// Summary sidecar (summary.go), loaded lazily on the first Prune: nil
	// after sumOnce when the file is missing or rejected by the strict
	// decoder — pruning then degrades to the geometry-only (Box) checks.
	sumOnce sync.Once
	summary *SummaryIndex

	// obsrv publishes pruning metrics and trace events; nil = disabled
	// (every obs method is nil-receiver safe).
	obsrv *obs.Observer
}

const metaFile = "meta.json"

func fileName(f int) string { return fmt.Sprintf("chunks-%03d.dat", f) }

// Create generates the dataset on disk by sampling its synthetic field.
func Create(dir string, m Meta) (*Store, error) {
	ds, err := New(m)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// meta.json is what Open looks for, so it is written last: a Create
	// that fails, here or over an older dataset, leaves nothing to open.
	meta := filepath.Join(dir, metaFile)
	if err := os.Remove(meta); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	fld := ds.Field()
	ix := newSummaryIndex(ds)
	err = ds.perFile(func(f int, w *worker) error {
		out, err := os.Create(filepath.Join(dir, fileName(f)))
		if err != nil {
			return err
		}
		err = w.records(ds, f, func(t, c int) error {
			v := volume.Borrow(ds.Block(c)) // FillBlock sets every sample
			volume.FillBlock(fld, v, float64(t))
			ix.Entries[t*ix.Chunks+c] = Summarize(v.Data)
			w.buf = wirebin.AppendFloat32s(w.buf[:0], v.Data)
			volume.Recycle(v)
			_, err := out.Write(w.buf)
			return err
		})
		return errors.Join(err, out.Close())
	})
	if err != nil {
		return nil, err
	}
	// The pruning sidecar costs one record per chunk-timestep and no extra
	// reads — the volumes were just in hand.
	if err := WriteSummaryIndex(dir, ix); err != nil {
		return nil, err
	}
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(meta, mj, 0o644); err != nil {
		return nil, err
	}
	return Open(dir)
}

// worker is one perFile goroutine. It reuses its buffer, and the volume it
// borrows, from chunk to chunk: it holds one chunk whatever the dataset size.
type worker struct {
	buf    []byte
	failed *atomic.Pointer[error]
}

// perFile calls do for every data file on min(GOMAXPROCS, Files) workers,
// each taking the next file index. Each file, and each summary slot, is one
// worker's alone, so a file's bytes do not depend on the worker count.
// Parallelism is capped at the file count (64 in the paper's layout, 8 in
// the bench's). The first error stops every worker at its next chunk;
// perFile returns it once all have exited.
func (ds *Dataset) perFile(do func(f int, w *worker) error) error {
	var next atomic.Int64
	var failed atomic.Pointer[error]
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), ds.Files) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{failed: &failed}
			for f := int(next.Add(1) - 1); f < ds.Files && failed.Load() == nil; f = int(next.Add(1) - 1) {
				if err := do(f, w); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// records calls visit for each record of file f in on-disk order: timesteps
// in order, the file's chunks in Hilbert order within each. It stops early
// once any worker has failed.
func (w *worker) records(ds *Dataset, f int, visit func(t, c int) error) error {
	for t := 0; t < ds.Timesteps; t++ {
		for _, c := range ds.inFile[f] {
			if err := visit(t, c); err != nil || w.failed.Load() != nil {
				return err
			}
		}
	}
	return nil
}

// Open loads a store's metadata and builds its offset tables.
func Open(dir string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("dataset: bad %s: %w", metaFile, err)
	}
	ds, err := New(m)
	if err != nil {
		return nil, err
	}
	s := &Store{Dir: dir, DS: ds, handles: make([]*os.File, m.Files)}
	s.perFile = make([][]int, m.Files)
	s.offsets = make([][]int64, m.Files)
	for f := 0; f < m.Files; f++ {
		chunks := ds.ChunksInFile(f)
		s.perFile[f] = chunks
		offs := make([]int64, m.Timesteps*len(chunks)+1)
		var off int64
		i := 0
		for t := 0; t < m.Timesteps; t++ {
			for _, c := range chunks {
				offs[i] = off
				off += int64(ds.ChunkBytes(c))
				i++
			}
		}
		offs[i] = off
		s.offsets[f] = offs
	}
	return s, nil
}

// handle returns the lazily opened file handle for data file f.
func (s *Store) handle(f int) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.handles[f] != nil {
		return s.handles[f], nil
	}
	fh, err := os.Open(filepath.Join(s.Dir, fileName(f)))
	if err != nil {
		return nil, err
	}
	s.handles[f] = fh
	return fh, nil
}

// Close releases the store's open file handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for i, fh := range s.handles {
		if fh != nil {
			if err := fh.Close(); err != nil && first == nil {
				first = err
			}
			s.handles[i] = nil
		}
	}
	return first
}

// ReadChunk reads one chunk at one timestep from disk into a volume from
// volume.Borrow; the caller owns it and may hand it to volume.Recycle.
func (s *Store) ReadChunk(chunk, timestep int) (*volume.Volume, error) {
	if chunk < 0 || chunk >= s.DS.Chunks() || timestep < 0 || timestep >= s.DS.Timesteps {
		return nil, fmt.Errorf("dataset: chunk %d at timestep %d out of range", chunk, timestep)
	}
	f := s.DS.FileOf(chunk)
	pos := -1
	for i, c := range s.perFile[f] {
		if c == chunk {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("dataset: chunk %d not in file %d", chunk, f)
	}
	idx := timestep*len(s.perFile[f]) + pos
	off := s.offsets[f][idx]
	size := s.DS.ChunkBytes(chunk)

	fh, err := s.handle(f)
	if err != nil {
		return nil, err
	}
	raw := s.scratchBuf(size)
	defer s.scratch.Put(raw)
	if _, err := fh.ReadAt(*raw, off); err != nil {
		return nil, fmt.Errorf("dataset: reading chunk %d: %w", chunk, err)
	}
	v := volume.Borrow(s.DS.Block(chunk)) // every sample is overwritten below
	wirebin.Float32s(v.Data, *raw)
	return v, nil
}

// SetObserver attaches the observability subsystem: Prune publishes
// dataset.chunks_pruned / dataset.bytes_skipped counters and a prune trace
// event per evaluation. o may be nil (disabled). Engines that run filters
// over this store call it through the filters' SetObserver chain.
func (s *Store) SetObserver(o *obs.Observer) {
	s.mu.Lock()
	s.obsrv = o
	s.mu.Unlock()
}

func (s *Store) observer() *obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsrv
}

// Summaries returns the sidecar summary index, loading it lazily on first
// use. It returns nil — and keeps returning nil without retrying — when the
// sidecar is missing, torn, or truncated: a store without summaries is
// merely unprunable, never broken.
func (s *Store) Summaries() *SummaryIndex {
	s.sumOnce.Do(func() {
		raw, err := os.ReadFile(filepath.Join(s.Dir, SummaryFile))
		if err != nil {
			return
		}
		ix, err := DecodeSummaryIndex(raw)
		if err != nil {
			return
		}
		// A sidecar that disagrees with the meta (copied from another
		// dataset, or written against a different chunking) must not drive
		// pruning decisions.
		if ix.Timesteps != s.DS.Timesteps || ix.Chunks != s.DS.Chunks() {
			return
		}
		s.summary = ix
	})
	return s.summary
}

// Prune returns the subset of chunks that can contribute to pred at
// timestep, in input order. It is conservative by construction: the spatial
// constraint is evaluated exactly against the chunk partition geometry, the
// iso constraint against the sidecar min/max summaries — and any chunk the
// loaded index does not cover (or, with no index at all, every chunk)
// passes the iso check unexamined. The input slice is never mutated.
func (s *Store) Prune(chunks []int, timestep int, pred Predicate) []int {
	if pred.Empty() || len(chunks) == 0 {
		return chunks
	}
	ix := s.Summaries()
	out := make([]int, 0, len(chunks))
	var skippedBytes int64
	for _, c := range chunks {
		if pred.MatchBlock(s.DS.Block(c)) {
			if sum, ok := ix.At(c, timestep); !ok || pred.MatchSummary(sum) {
				out = append(out, c)
				continue
			}
		}
		skippedBytes += int64(s.DS.ChunkBytes(c))
	}
	pruned := len(chunks) - len(out)
	if o := s.observer(); o != nil && pruned > 0 {
		if reg := o.Registry(); reg != nil {
			reg.Counter("dataset.chunks_pruned").Add(int64(pruned))
			reg.Counter("dataset.bytes_skipped").Add(skippedBytes)
		}
		o.Emit(obs.Event{
			Kind: obs.KindPrune, N: pruned, Bytes: int(skippedBytes),
			UOW: timestep, Note: pred.String(),
		})
	}
	return out
}

// scratchBuf returns a pooled raw-read buffer resized to n bytes.
func (s *Store) scratchBuf(n int) *[]byte {
	bp, _ := s.scratch.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}
