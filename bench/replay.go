package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
)

// Span names of the kernel replay; each is the public function the span
// wraps, its layer the package that owns it.
const (
	spanReplayFrame = "replay.frame"
	spanPrune       = "dataset.Prune"
	spanRead        = "dataset.ReadChunk"
	spanExtract     = "mcubes.Extract"
	spanRaster      = "render.DrawAll"
	spanMerge       = "render.merge"
	spanSetup       = "render.setup"
)

// query is the part of a workload the kernels see: which iso-surface, by
// which hidden-surface algorithm, with or without predicate pushdown.
type query struct {
	iso      float32
	alg      isoviz.Algorithm
	pushdown bool
}

// kernelCounts is the work one frame of a view does, counted by the
// kernels themselves. The counts repeat exactly from run to run.
type kernelCounts struct {
	ChunksRead   int
	ChunksPruned int
	ReadBytes    int64
	Cells        int
	Triangles    int
	PixelsMerged int
}

// replayView renders one view on a single goroutine straight through the
// kernels — Prune → ReadChunk → Extract → DrawAll → merge — with a span
// around every call. It serves two purposes: the image is the reference
// every engine's result must equal bit for bit, and the spans' self times
// are the serial cost of each layer, the base of the frame budget.
func replayView(st *dataset.Store, v isoviz.View, q query, tr *tracer, frame int) (*render.ZBuffer, kernelCounts, error) {
	var n kernelCounts
	root := tr.begin(spanReplayFrame, "bench", -1, frame)
	defer tr.end(root)

	chunks := make([]int, st.DS.Chunks())
	for i := range chunks {
		chunks[i] = i
	}
	if q.pushdown {
		s := tr.begin(spanPrune, "dataset", root, frame)
		kept := st.Prune(chunks, v.Timestep, dataset.IsoPredicate(v.Iso))
		tr.end(s)
		n.ChunksPruned = len(chunks) - len(kept)
		chunks = kept
	}

	s := tr.begin(spanSetup, "render", root, frame)
	final := render.NewZBuffer(v.Width, v.Height)
	rr := render.NewRaster(v.Camera, v.Width, v.Height)
	var target render.Target
	var ap *render.ActivePixels
	var zb *render.ZBuffer
	raster := -1 // the DrawAll span an active-pixel flush happens inside
	if q.alg == isoviz.ActivePixel {
		ap = render.NewActivePixels(v.Width, v.Height, isoviz.WPABufferBytes/render.PixelBytes, func(px []render.Pixel) {
			m := tr.begin(spanMerge, "render", raster, frame)
			render.MergePixels(final, px)
			tr.end(m)
			n.PixelsMerged += len(px)
		})
		target = ap
	} else {
		zb = render.NewZBuffer(v.Width, v.Height)
		target = zb
	}
	tr.end(s)

	var tris []geom.Triangle
	for _, c := range chunks {
		s = tr.begin(spanRead, "dataset", root, frame)
		vol, err := st.ReadChunk(c, v.Timestep)
		tr.end(s)
		if err != nil {
			return nil, n, fmt.Errorf("replay: chunk %d timestep %d: %w", c, v.Timestep, err)
		}
		n.ChunksRead++
		n.ReadBytes += int64(vol.Bytes())

		s = tr.begin(spanExtract, "mcubes", root, frame)
		var ms mcubes.Stats
		tris, ms = mcubes.Extract(vol, v.Iso, tris[:0])
		tr.end(s)
		n.Cells += ms.Cells
		n.Triangles += ms.Triangles

		raster = tr.begin(spanRaster, "render", root, frame)
		rr.DrawAll(tris, target)
		if ap != nil {
			ap.FlushRemaining() // one input buffer done: ship the winning pixels
		}
		tr.end(raster)
	}
	if zb != nil {
		s = tr.begin(spanMerge, "render", root, frame)
		final.MergeRange(0, zb.Depth, zb.Color)
		tr.end(s)
		n.PixelsMerged = len(zb.Depth)
	}
	return final, n, nil
}

// hashImage fingerprints a rendered frame (depth and colour planes), so
// result files of different workloads and machines can be compared.
func hashImage(z *render.ZBuffer) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 7*len(z.Depth))
	for i, d := range z.Depth {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(d))
		c := z.Color[i]
		buf = append(buf, c.R, c.G, c.B)
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// reference is what a correct frame of one view looks like.
type reference struct {
	image  *render.ZBuffer
	hash   string
	counts kernelCounts
}

// references replays every stored timestep of q once and keeps the images.
func references(st *dataset.Store, in input, q query, tr *tracer) ([]reference, error) {
	refs := make([]reference, in.meta.Timesteps)
	for t := range refs {
		img, n, err := replayView(st, in.view(q.iso, t), q, tr, t)
		if err != nil {
			return nil, err
		}
		refs[t] = reference{image: img, hash: hashImage(img), counts: n}
	}
	return refs, nil
}
