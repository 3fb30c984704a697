// Package adr implements the comparison baseline: an Active Data
// Repository-style SPMD runtime (Chang et al. [12], Ferreira et al. [15]).
//
// ADR's model, as the paper characterizes it: datasets are statically
// partitioned across the nodes of a homogeneous parallel machine; every
// node runs the identical accumulator loop (read local chunks, aggregate
// into a local accumulator — here a z-buffer) with carefully overlapped
// asynchronous I/O and computation; partial accumulators are combined at
// the end. Its strength is low overhead on dedicated homogeneous nodes;
// its weakness is that static partitioning cannot shed load when nodes are
// heterogeneous or externally loaded (paper §4.2).
//
// RunLocal is a real in-process implementation operating on actual data
// (used to cross-validate images against the filter pipelines); RunSim is
// the simulated implementation used by the paper-scale experiments.
package adr

import (
	"fmt"
	"runtime"
	"sync"

	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
)

// LocalOptions configures an in-process SPMD run.
type LocalOptions struct {
	Source  isoviz.ChunkSource
	View    isoviz.View
	Workers int // SPMD width; defaults to GOMAXPROCS
}

// RunLocal renders a view with the ADR model on real data: chunks are
// statically partitioned across workers, each worker accumulates into a
// private z-buffer, and the partial buffers merge into the final image.
func RunLocal(opts LocalOptions) (*render.ZBuffer, error) {
	w := opts.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	n := opts.Source.Chunks()
	partials := make([]*render.ZBuffer, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			z := render.NewZBuffer(opts.View.Width, opts.View.Height)
			rr := render.NewRaster(opts.View.Camera, opts.View.Width, opts.View.Height)
			var mesh geom.Mesh
			// Static partition: worker i owns chunks i, i+w, i+2w, ...
			for c := i; c < n; c += w {
				v, err := opts.Source.Load(c, opts.View.Timestep)
				if err != nil {
					errs[i] = fmt.Errorf("adr: chunk %d: %w", c, err)
					return
				}
				mesh.Reset()
				mcubes.ExtractMesh(v, opts.View.Iso, &mesh)
				rr.DrawMesh(&mesh, z)
			}
			partials[i] = z
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := render.NewZBuffer(opts.View.Width, opts.View.Height)
	for _, p := range partials {
		out.MergeFrom(p)
	}
	return out, nil
}
