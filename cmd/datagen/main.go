// Command datagen creates an on-disk chunked dataset: a synthetic
// reactive-transport field sampled onto a rectilinear grid, partitioned
// into chunks, and declustered across data files along a 3-D Hilbert curve
// (the storage layout the paper's datasets used).
//
// Creation also writes the chunk-summary sidecar (summary.idx) that powers
// predicate pushdown; -no-index suppresses it, and -reindex retrofits the
// sidecar onto an existing dataset by re-reading every chunk.
//
// Usage:
//
//	datagen -dir /data/plume -grid 129x129x97 -chunks 8x8x6 -timesteps 10 -files 64
//	datagen -dir /data/plume -reindex
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"datacutter/internal/dataset"
)

// options are the parsed command-line flags.
type options struct {
	dir              string
	meta             dataset.Meta // generation flags; GX..BZ from -grid and -chunks
	reindex, noIndex bool
}

// parseFlags parses args; on an error it has printed the reason and the
// usage.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.StringVar(&o.dir, "dir", "", "output directory (required)")
	grid := fs.String("grid", "129x129x97", "grid samples as NXxNYxNZ")
	chunks := fs.String("chunks", "8x8x6", "chunk grid as BXxBYxBZ")
	fs.IntVar(&o.meta.Timesteps, "timesteps", 10, "stored timesteps")
	fs.IntVar(&o.meta.Files, "files", 64, "data files to decluster across")
	fs.Int64Var(&o.meta.Seed, "seed", 2002, "field seed")
	fs.IntVar(&o.meta.Plumes, "plumes", 5, "chemical plumes in the field")
	fs.BoolVar(&o.meta.Skewed, "skewed", false, "use the spatially skewed field variant")
	fs.BoolVar(&o.reindex, "reindex", false, "rebuild the summary sidecar of an existing dataset (ignores generation flags)")
	fs.BoolVar(&o.noIndex, "no-index", false, "do not write the summary sidecar (disables pushdown pruning)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	switch {
	case o.dir == "":
		err = errors.New("-dir is required")
	case o.reindex:
	case !dims(*grid, &o.meta.GX, &o.meta.GY, &o.meta.GZ):
		err = fmt.Errorf("bad -grid %q: want NXxNYxNZ", *grid)
	case !dims(*chunks, &o.meta.BX, &o.meta.BY, &o.meta.BZ):
		err = fmt.Errorf("bad -chunks %q: want BXxBYxBZ", *chunks)
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), "datagen:", err)
		fs.Usage()
	}
	return o, err
}

// dims parses "AxBxC" into three positive integers.
func dims(s string, a, b, c *int) bool {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return false
	}
	for i, p := range []*int{a, b, c} {
		n, err := strconv.Atoi(parts[i])
		if err != nil || n <= 0 {
			return false
		}
		*p = n
	}
	return true
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// run creates (or, with -reindex, reindexes) the dataset o describes and
// reports on w.
func run(o options, w io.Writer) error {
	if o.reindex {
		return reindexStore(o.dir, w)
	}
	st, err := dataset.Create(o.dir, o.meta)
	if err != nil {
		return err
	}
	defer st.Close()
	idxNote := "with summary sidecar"
	if o.noIndex {
		if err := os.Remove(filepath.Join(o.dir, dataset.SummaryFile)); err != nil {
			return err
		}
		idxNote = "without summary sidecar"
	}
	ds := st.DS
	fmt.Fprintf(w, "created %s: %d chunks (%d samples each on average) x %d timesteps in %d files, %.1f MB/timestep, %s\n",
		o.dir, ds.Chunks(), ds.Block(0).Samples(), o.meta.Timesteps, o.meta.Files,
		float64(ds.TotalBytes())/1e6, idxNote)
	return nil
}

// reindexStore rebuilds summary.idx for a dataset created before summaries
// existed (or with -no-index), reading every chunk once.
func reindexStore(dir string, w io.Writer) error {
	st, err := dataset.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	ix, err := dataset.BuildSummaryIndex(st)
	if err != nil {
		return err
	}
	if err := dataset.WriteSummaryIndex(dir, ix); err != nil {
		return err
	}
	fmt.Fprintf(w, "reindexed %s: %d chunk-timestep summaries (%d chunks x %d timesteps)\n",
		dir, len(ix.Entries), ix.Chunks, ix.Timesteps)
	return nil
}
