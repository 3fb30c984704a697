package dataset_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/isoviz"
)

// A data file torn after the store opened it must surface as a typed read
// error that names the chunk — never a crash, and never a short read
// decoded as samples. The chunk under test is the last record of its file,
// so truncating mid-way through it leaves every other record intact.
func TestReadChunkAfterTruncation(t *testing.T) {
	midChunk := func(size, chunkBytes int64) int64 { return size - chunkBytes/2 }
	for _, tc := range []struct {
		name string
		keep func(size, chunkBytes int64) int64 // bytes left in the file
	}{
		{"empty", func(int64, int64) int64 { return 0 }},
		{"mid-chunk", midChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, chunk, ts, path := openTornCandidate(t)
			defer st.Close()
			v, err := st.ReadChunk(chunk, ts)
			if err != nil {
				t.Fatalf("read before truncation: %v", err)
			}
			if len(v.Data) == 0 {
				t.Fatal("read before truncation returned no samples")
			}
			truncate(t, path, tc.keep, int64(st.DS.ChunkBytes(chunk)))

			for rep := 0; rep < 2; rep++ { // the error is stable, not one-shot
				v, err := st.ReadChunk(chunk, ts)
				if err == nil {
					t.Fatalf("read %d after truncation returned %d samples, want an error", rep, len(v.Data))
				}
				if !errors.Is(err, io.EOF) {
					t.Errorf("read %d: %v does not wrap io.EOF", rep, err)
				}
				if want := fmt.Sprintf("chunk %d", chunk); !strings.Contains(err.Error(), want) {
					t.Errorf("read %d: %q does not name %s", rep, err, want)
				}
			}
		})
	}

	t.Run("pipeline", func(t *testing.T) {
		st, chunk, ts, path := openTornCandidate(t)
		defer st.Close()
		truncate(t, path, midChunk, int64(st.DS.ChunkBytes(chunk)))

		src := &isoviz.StoreSource{St: st}
		spec := isoviz.PipelineSpec{
			Config: isoviz.ReadExtract, Alg: isoviz.ActivePixel,
			Source: src, Assign: isoviz.AssignByCopy(src.Chunks()),
		}
		pl := core.NewPlacement().Place("RE", "h0", 2).Place("Ra", "h0", 1).Place("M", "h0", 1)
		view := isoviz.DefaultView(0.5)
		view.Timestep, view.Width, view.Height = ts, 64, 64
		r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run()
		if err == nil {
			t.Fatal("pipeline over a truncated store succeeded")
		}
		if !errors.Is(err, io.EOF) {
			t.Errorf("run error %v does not wrap io.EOF", err)
		}
		if want := fmt.Sprintf("chunk %d", chunk); !strings.Contains(err.Error(), want) {
			t.Errorf("run error %q does not name %s", err, want)
		}
	})
}

var tornMeta = dataset.Meta{
	GX: 33, GY: 33, GZ: 25, BX: 3, BY: 3, BZ: 3,
	Timesteps: 2, Files: 4, Seed: 11, Plumes: 4,
}

// openTornCandidate creates a store and returns it with the chunk and
// timestep of the last record in data file 0, and that file's path.
func openTornCandidate(t *testing.T) (st *dataset.Store, chunk, timestep int, path string) {
	t.Helper()
	dir := t.TempDir()
	st, err := dataset.Create(dir, tornMeta)
	if err != nil {
		t.Fatal(err)
	}
	inFile := st.DS.ChunksInFile(0)
	return st, inFile[len(inFile)-1], st.DS.Timesteps - 1, filepath.Join(dir, "chunks-000.dat")
}

func truncate(t *testing.T, path string, keep func(size, chunkBytes int64) int64, chunkBytes int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, keep(fi.Size(), chunkBytes)); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadChunkTruncated tears the data file holding (chunk, timestep) at
// an arbitrary length (keep bytes, capped at the file's size) and reads the
// record back from a fresh store. The read must return the exact samples
// when the record lies wholly inside the kept bytes, an error wrapping
// io.EOF that names the chunk when it does not, and an error for a chunk or
// timestep out of range — never a panic or a short volume. The seeds
// include TestReadChunkAfterTruncation's two cuts.
func FuzzReadChunkTruncated(f *testing.F) {
	src := f.TempDir()
	ref, err := dataset.Create(src, tornMeta)
	if err != nil {
		f.Fatal(err)
	}
	defer ref.Close()
	ds := ref.DS
	meta, err := os.ReadFile(filepath.Join(src, "meta.json"))
	if err != nil {
		f.Fatal(err)
	}
	files := make([][]byte, ds.Files)
	for i := range files {
		if files[i], err = os.ReadFile(filepath.Join(src, fmt.Sprintf("chunks-%03d.dat", i))); err != nil {
			f.Fatal(err)
		}
	}
	// recordEnd is the file offset just past (chunk, timestep)'s record:
	// a file holds every timestep's chunks in Hilbert order, timestep by
	// timestep.
	recordEnd := func(chunk, timestep int) int {
		inFile := ds.ChunksInFile(ds.FileOf(chunk))
		end := 0
		for t := 0; t <= timestep; t++ {
			for _, c := range inFile {
				end += ds.ChunkBytes(c)
				if t == timestep && c == chunk {
					return end
				}
			}
		}
		panic("chunk not in its file")
	}

	inFile := ds.ChunksInFile(0)
	last, size := inFile[len(inFile)-1], uint32(len(files[0]))
	f.Add(last, ds.Timesteps-1, uint32(0))                          // "empty"
	f.Add(last, ds.Timesteps-1, size-uint32(ds.ChunkBytes(last))/2) // "mid-chunk"
	f.Add(inFile[0], 0, uint32(recordEnd(inFile[0], 0)))            // cut exactly at the record's end
	f.Add(inFile[0], 0, uint32(recordEnd(inFile[0], 0)-1))          // one byte short
	f.Add(ds.Chunks()-1, 1, uint32(math.MaxUint32))                 // whole file
	f.Add(ds.Chunks(), 0, uint32(0))                                // chunk out of range
	f.Add(-1, 0, uint32(0))
	f.Add(0, ds.Timesteps, uint32(0)) // timestep out of range

	f.Fuzz(func(t *testing.T, chunk, timestep int, keep uint32) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		inRange := chunk >= 0 && chunk < ds.Chunks() && timestep >= 0 && timestep < ds.Timesteps
		if inRange {
			file := files[ds.FileOf(chunk)]
			torn := file[:min(int(keep), len(file))]
			path := filepath.Join(dir, fmt.Sprintf("chunks-%03d.dat", ds.FileOf(chunk)))
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := dataset.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		v, err := st.ReadChunk(chunk, timestep)
		switch {
		case !inRange:
			if err == nil {
				t.Fatalf("ReadChunk(%d, %d) out of range returned %d samples", chunk, timestep, len(v.Data))
			}
		case int64(keep) >= int64(recordEnd(chunk, timestep)):
			if err != nil {
				t.Fatalf("record inside the kept %d bytes: %v", keep, err)
			}
			want, err := ref.ReadChunk(chunk, timestep)
			if err != nil {
				t.Fatal(err)
			}
			if v.Block != want.Block || v.NX != want.NX || v.NY != want.NY || v.NZ != want.NZ ||
				!slices.Equal(v.Data, want.Data) {
				t.Fatalf("chunk %d t%d read back differs from the intact store's", chunk, timestep)
			}
		default:
			if err == nil {
				t.Fatalf("record past the kept %d bytes returned %d samples, want an error", keep, len(v.Data))
			}
			if !errors.Is(err, io.EOF) {
				t.Errorf("%v does not wrap io.EOF", err)
			}
			if want := fmt.Sprintf("chunk %d", chunk); !strings.Contains(err.Error(), want) {
				t.Errorf("%q does not name %s", err, want)
			}
		}
	})
}
