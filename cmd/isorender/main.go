// Command isorender runs the real isosurface rendering pipeline end to end
// (Figure 2(a) of the paper): it reads a chunked dataset (from a datagen
// directory, or a synthetic in-memory one), extracts the isosurface,
// renders it with transparent raster-filter copies under a writer policy,
// merges the partial results, and writes a PNG.
//
// Usage:
//
//	isorender -o iso.png                         # synthetic in-memory data
//	isorender -dir /data/plume -o iso.png        # datagen dataset from disk
//	isorender -copies 4 -policy DD -alg ap -size 1024 -iso 0.8 -o iso.png
package main

import (
	"errors"
	"flag"
	"fmt"
	"image/png"
	"io"
	"os"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/isoviz"
	"datacutter/internal/volume"
)

// options are the parsed command-line flags.
type options struct {
	out, dir, policy             string
	size, timestep, copies, grid int
	iso                          float64
	alg                          isoviz.Algorithm
	verbose                      bool
}

// parseFlags parses args; on an error it has printed the reason and the
// usage.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("isorender", flag.ContinueOnError)
	fs.StringVar(&o.out, "o", "iso.png", "output PNG path")
	fs.StringVar(&o.dir, "dir", "", "datagen dataset directory (empty: synthetic in-memory volume)")
	fs.IntVar(&o.size, "size", 512, "output image width and height")
	fs.Float64Var(&o.iso, "iso", 0.5, "isosurface value")
	fs.IntVar(&o.timestep, "timestep", 0, "timestep to render")
	fs.IntVar(&o.copies, "copies", 2, "transparent copies of the raster filter")
	fs.StringVar(&o.policy, "policy", "DD", "writer policy: RR | WRR | DD")
	alg := fs.String("alg", "ap", "hidden-surface removal: ap (active pixel) | zb (z-buffer)")
	fs.IntVar(&o.grid, "grid", 97, "synthetic grid samples per axis (without -dir)")
	fs.BoolVar(&o.verbose, "v", false, "print pipeline statistics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch *alg {
	case "ap":
		o.alg = isoviz.ActivePixel
	case "zb":
		o.alg = isoviz.ZBuffer
	default:
		err := fmt.Errorf("unknown -alg %q: want ap or zb", *alg)
		fmt.Fprintln(fs.Output(), "isorender:", err)
		fs.Usage()
		return o, err
	}
	return o, nil
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
		fmt.Fprintln(os.Stderr, "isorender:", err)
		os.Exit(1)
	}
}

// run renders the view o describes into the PNG at o.out and reports on w.
func run(o options, w io.Writer) error {
	var src isoviz.ChunkSource
	if o.dir != "" {
		st, err := dataset.Open(o.dir)
		if err != nil {
			return err
		}
		defer st.Close()
		src = &isoviz.StoreSource{St: st}
	} else {
		n := o.grid
		src = isoviz.NewFieldSource(volume.NewPlumeField(2002, 5), n, n, n, 4, 4, 4)
	}

	pol := core.PolicyByName(o.policy)
	if pol == nil {
		return fmt.Errorf("unknown policy %q", o.policy)
	}
	view := isoviz.View{
		Timestep: o.timestep,
		Iso:      float32(o.iso),
		Width:    o.size, Height: o.size,
		Camera: isoviz.DefaultView(0).Camera,
	}
	spec := isoviz.PipelineSpec{
		Config: isoviz.ReadExtract,
		Alg:    o.alg,
		Source: src,
		Assign: isoviz.AssignByCopy(src.Chunks()),
	}
	pl := core.NewPlacement().
		Place("RE", "local", 2).
		Place("Ra", "local", o.copies).
		Place("M", "local", 1)

	r, err := core.NewRunner(spec.Build(), pl, core.Options{Policy: pol, UOWs: []any{view}})
	if err != nil {
		return err
	}
	t0 := time.Now()
	stats, err := r.Run()
	if err != nil {
		return err
	}
	m, err := isoviz.MergeResult(r.Instances("M"))
	if err != nil {
		return err
	}
	img := m.Result().Image()

	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "rendered %d chunks -> %s (%dx%d, %s, %s policy, %d raster copies) in %.2fs\n",
		src.Chunks(), o.out, o.size, o.size, o.alg, pol.Name(), o.copies, time.Since(t0).Seconds())
	if o.verbose {
		for _, name := range stats.StreamNames() {
			ss := stats.Streams[name]
			fmt.Fprintf(w, "  stream %-10s %6d buffers  %8.2f MB  %d acks\n",
				name, ss.Buffers, float64(ss.Bytes)/1e6, ss.Acks)
		}
		for _, fn := range []string{"RE", "Ra", "M"} {
			fs := stats.Filters[fn]
			_, busy, _ := core.MinAvgMax(fs.BusySeconds)
			fmt.Fprintf(w, "  filter %-3s x%d  avg busy %.3fs\n", fn, fs.Copies, busy)
		}
	}
	return nil
}
