package dataset_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// openTornCandidate creates a store and returns it with the chunk and
// timestep of the last record in data file 0, and that file's path.
func openTornCandidate(t *testing.T) (st *dataset.Store, chunk, timestep int, path string) {
	t.Helper()
	dir := t.TempDir()
	st, err := dataset.Create(dir, dataset.Meta{
		GX: 33, GY: 33, GZ: 25, BX: 3, BY: 3, BZ: 3,
		Timesteps: 2, Files: 4, Seed: 11, Plumes: 4,
	})
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
