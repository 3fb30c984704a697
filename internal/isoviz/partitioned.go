package isoviz

import (
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/geom"
	"datacutter/internal/render"
)

// Image-space partitioning — the hybrid strategy the paper's conclusions
// propose (§6): "we could partition the image space into subregions among
// the raster filters, thus eliminating the merge filter['s bottleneck] …
// a hybrid strategy that combines image-partitioning and
// image-replication". The screen is cut into horizontal bands; each band
// has its own raster filter (which may itself be transparently replicated
// — the replication axis), and the producer routes each triangle to every
// band its screen projection overlaps. Band rasterizers scissor to their
// strip, so bands stay disjoint and the merge filter's work drops from
// "every copy's winning pixels" to "each winning pixel once".

// TriBandStream names the triangle stream feeding band i.
func TriBandStream(i int) string { return fmt.Sprintf("tri%d", i) }

// PixBandStream names the pixel stream from band i's rasterizer.
func PixBandStream(i int) string { return fmt.Sprintf("pix%d", i) }

// BandFilterName names band i's raster filter.
func BandFilterName(i int) string { return fmt.Sprintf("Ra%d", i) }

// RouteFilter is the routing stage of the partitioned pipeline: it sends
// each triangle of its input batches to every band its screen-space
// bounding box overlaps (triangles spanning a band border go to both;
// scissoring keeps the result exact), one batch per band and input batch
// unless a band's triangles overrun a buffer. Each vertex is projected
// once.
type RouteFilter struct {
	core.BaseFilter
	In    string
	Bands int

	// Scratch kept across units of work: the batch's vertices'
	// projections, and one packer per band.
	proj  []projY
	packs []meshPacker
}

// projY is a vertex's screen y, and whether it lies in front of the eye.
type projY struct {
	y     float32
	front bool
}

// Process implements core.Filter.
func (f *RouteFilter) Process(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	if f.Bands < 1 {
		return fmt.Errorf("isoviz: partitioned pipeline needs >= 1 band")
	}
	m := view.Camera.Matrix(view.Width, view.Height)
	if len(f.packs) != f.Bands {
		f.packs = make([]meshPacker, f.Bands)
	}
	for i := range f.packs {
		f.packs[i].reset(ctx, TriBandStream(i))
	}
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			return nil
		}
		tb, ok := b.Payload.(TriBatch)
		if !ok {
			return fmt.Errorf("isoviz: route got %T", b.Payload)
		}
		f.proj = f.proj[:0]
		for _, p := range tb.P {
			sp, w := m.Apply(p)
			f.proj = append(f.proj, projY{sp.Y, !(w <= 0)}) // a NaN w is not culled
		}
		for i := range f.packs {
			f.packs[i].begin(&tb.Mesh)
		}
		for t := range tb.Triangles() {
			if err := f.route(ctx, view.Height, &tb.Mesh, t); err != nil {
				return err
			}
		}
		recycleMesh(tb.Mesh)
		for i := range f.packs {
			if err := f.packs[i].flush(ctx); err != nil {
				return err
			}
		}
	}
}

// route adds triangle t of src to every band its projection may cover, on
// an image h pixels tall.
func (f *RouteFilter) route(ctx core.Ctx, h int, src *geom.Mesh, t int) error {
	idx := src.Idx[3*t : 3*t+3]
	a, b, c := f.proj[idx[0]], f.proj[idx[1]], f.proj[idx[2]]
	if !a.front || !b.front || !c.front {
		return nil // behind the eye: the rasterizer would cull it
	}
	minY, maxY := a.y, a.y
	for _, y := range [2]float32{b.y, c.y} {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	// Generous one-pixel margin: routing a triangle to an extra band is
	// harmless (its scissor discards it); missing a band would drop pixels.
	y0 := int(minY) - 1
	y1 := int(maxY) + 1
	if y1 < 0 || y0 > h-1 {
		return nil // fully off screen: early cull
	}
	if y0 < 0 {
		y0 = 0
	}
	if y1 > h-1 {
		y1 = h - 1
	}
	for band := render.BandOf(h, f.Bands, y0); band <= render.BandOf(h, f.Bands, y1); band++ {
		if err := f.packs[band].add(ctx, src, t); err != nil {
			return err
		}
	}
	return nil
}

// PartitionedSpec assembles the hybrid pipeline from the standard stages:
// RE reads, extracts and routes triangles to `Bands` band rasterizers,
// whose disjoint pixel streams a single merge filter assembles (its
// per-pixel work no longer grows with the copy count).
type PartitionedSpec struct {
	Bands  int
	Source ChunkSource
	Assign Assign
}

// Build constructs the partitioned graph: filters "RE" (R, E and the route
// fused), "Ra0".."Ra<K-1>", and "M".
func (s PartitionedSpec) Build() *core.Graph {
	g := core.NewGraph()
	g.AddFilter("RE", func() core.Filter {
		re := core.Fuse(&ReadFilter{Source: s.Source, Assign: s.Assign, Out: StreamVoxels},
			&ExtractFilter{In: StreamVoxels, Out: StreamTriangles}, StreamVoxels)
		return core.Fuse(re, &RouteFilter{In: StreamTriangles, Bands: s.Bands}, StreamTriangles)
	})
	var ins []string
	for i := 0; i < s.Bands; i++ {
		name := BandFilterName(i)
		g.AddFilter(name, func() core.Filter {
			return &RasterAPFilter{In: TriBandStream(i), Out: PixBandStream(i), Band: i, Bands: s.Bands}
		})
		g.Connect("RE", name, TriBandStream(i))
		g.Connect(name, "M", PixBandStream(i))
		ins = append(ins, PixBandStream(i))
	}
	g.AddFilter("M", func() core.Filter { return &MergeFilter{Ins: ins} })
	return g
}
