package isoviz

import (
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/mcubes"
	"datacutter/internal/obs"
	"datacutter/internal/render"
)

// viewOf extracts the View descriptor from the unit of work.
func viewOf(ctx core.Ctx) (View, error) {
	v, ok := ctx.Work().(View)
	if !ok {
		return View{}, fmt.Errorf("isoviz: unit of work is %T, want isoviz.View", ctx.Work())
	}
	return v, nil
}

// ---- Read filter (R) ----

// ReadFilter retrieves the chunks assigned to this copy and writes each as
// one buffer on its output stream. With Pushdown set, the view's iso-value
// (and the optional Pred) is evaluated against the source's chunk summaries
// first, so provably contribution-free chunks are never read.
type ReadFilter struct {
	core.BaseFilter
	Source   ChunkSource
	Assign   Assign
	Out      string // output stream (StreamVoxels in the standard graphs)
	Pushdown bool
	Pred     dataset.Predicate // extra constraint ANDed with the view's
}

// SetObserver implements core.ObserverSetter (near-storage metrics).
func (f *ReadFilter) SetObserver(o *obs.Observer) { forwardObserver(f.Source, o) }

// Process implements core.Filter.
func (f *ReadFilter) Process(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	chunks := pruneChunks(f.Source, f.Assign(ctx), view, f.Pred, f.Pushdown)
	for _, chunk := range chunks {
		v, err := f.Source.Load(chunk, view.Timestep)
		if err != nil {
			return fmt.Errorf("isoviz: read chunk %d: %w", chunk, err)
		}
		if err := ctx.Write(f.Out, core.Buffer{Payload: VoxelBlock{V: v}, Size: v.Bytes()}); err != nil {
			return err
		}
	}
	return nil
}

// ---- Extract filter (E) ----

// meshPacker cuts the triangles a chunk yields on one output stream into
// buffers: a buffer is sent when it holds the stream's buffer size in
// triangles (geom.TriangleBytes each) or when the input chunk has been
// fully processed (paper §3.1.1). Each buffer is an indexed mesh with only
// the vertices its triangles use, renumbered in first use order, on planes
// from the free lists. The packer is kept across units of work for its
// scratch.
type meshPacker struct {
	out  string
	cap  int       // triangles per buffer
	part geom.Mesh // the buffer being filled; P is nil when none is
	// remap maps a vertex of the chunk's mesh to its index in part; an
	// entry is valid when its gen is gen, which moves on with every part
	// and every chunk.
	remap []remapSlot
	gen   uint32
}

type remapSlot struct{ gen, idx uint32 }

// reset aims the packer at stream out for one unit of work.
func (p *meshPacker) reset(ctx core.Ctx, out string) {
	p.out, p.cap = out, max(ctx.BufferBytes(out)/geom.TriangleBytes, 1)
}

// pack sends all of src's triangles: src itself, copied to planes from the
// free lists, when they fit one buffer.
func (p *meshPacker) pack(ctx core.Ctx, src *geom.Mesh) error {
	n := src.Triangles()
	if n == 0 {
		return nil
	}
	if n > p.cap {
		p.begin(src)
		for t := range n {
			if err := p.add(ctx, src, t); err != nil {
				return err
			}
		}
		return p.flush(ctx)
	}
	b := TriBatch{geom.Mesh{P: vertices.get(len(src.P)), N: vertices.get(len(src.N)), Idx: indices.get(len(src.Idx))}}
	copy(b.P, src.P)
	copy(b.N, src.N)
	copy(b.Idx, src.Idx)
	return ctx.Write(p.out, core.Buffer{Payload: b, Size: b.Bytes()})
}

// begin starts a chunk whose triangles add will pick from src.
func (p *meshPacker) begin(src *geom.Mesh) {
	if len(p.remap) < len(src.P) {
		p.remap = make([]remapSlot, len(src.P))
	}
	p.next()
}

// next invalidates every remap entry.
func (p *meshPacker) next() {
	if p.gen++; p.gen == 0 {
		clear(p.remap)
		p.gen = 1
	}
}

// add appends triangle t of src to the buffer, and sends the buffer when
// it is full.
func (p *meshPacker) add(ctx core.Ctx, src *geom.Mesh, t int) error {
	if p.part.P == nil {
		n := min(p.cap, src.Triangles())
		nv := min(len(src.P), 3*n)
		p.part = geom.Mesh{P: vertices.get(nv)[:0], N: vertices.get(nv)[:0], Idx: indices.get(3 * n)[:0]}
	}
	for _, i := range src.Idx[3*t : 3*t+3] {
		r := &p.remap[i]
		if r.gen != p.gen {
			*r = remapSlot{p.gen, uint32(len(p.part.P))}
			p.part.P = append(p.part.P, src.P[i])
			p.part.N = append(p.part.N, src.N[i])
		}
		p.part.Idx = append(p.part.Idx, r.idx)
	}
	if p.part.Triangles() >= p.cap {
		return p.flush(ctx)
	}
	return nil
}

// flush sends the buffer being filled, if it holds any triangle.
func (p *meshPacker) flush(ctx core.Ctx) error {
	if p.part.P == nil {
		return nil
	}
	b := TriBatch{p.part}
	p.part = geom.Mesh{}
	p.next()
	return ctx.Write(p.out, core.Buffer{Payload: b, Size: b.Bytes()})
}

// ExtractFilter turns voxel chunks into indexed triangle batches via
// marching cubes, one batch per chunk unless the chunk's triangles overrun
// a buffer. Voxels are independent, so any number of transparent copies
// may run (paper §3.1.1).
type ExtractFilter struct {
	core.BaseFilter
	In, Out string
	mesh    geom.Mesh // the chunk's mesh, kept across units of work
	pack    meshPacker
}

// Process implements core.Filter.
func (f *ExtractFilter) Process(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	f.pack.reset(ctx, f.Out)
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			return nil
		}
		vb, ok := b.Payload.(VoxelBlock)
		if !ok {
			return fmt.Errorf("isoviz: extract got %T", b.Payload)
		}
		f.mesh.Reset()
		mcubes.ExtractMesh(vb.V, view.Iso, &f.mesh)
		recycleVolume(vb.V)
		// The whole input buffer is extracted: send it (keeps the pipeline
		// busy).
		if err := f.pack.pack(ctx, &f.mesh); err != nil {
			return err
		}
	}
}

// ---- Raster filter (Ra), z-buffer variant ----

// sendZBuffer ships the full z-buffer in fixed-size chunks on out. This is
// the pixel-merging phase of the z-buffer algorithm: it happens only after
// the end-of-work marker, the synchronization point that stalls the
// pipeline (paper §3.1.2), and it transmits inactive pixels too. The planes
// go with it: a frame that fits one buffer ships as its own planes, and a
// larger one is copied out and its planes return to the free lists.
func sendZBuffer(ctx core.Ctx, z *render.ZBuffer, out string) error {
	pxPerBuf := max(ctx.BufferBytes(out)/render.ZPixelBytes, 1)
	total := z.W * z.H
	if 0 < total && total <= pxPerBuf {
		chunk := ZChunk{Depth: z.Depth, Color: z.Color}
		return ctx.Write(out, core.Buffer{Payload: chunk, Size: chunk.Bytes()})
	}
	for off := 0; off < total; off += pxPerBuf {
		end := off + pxPerBuf
		if end > total {
			end = total
		}
		chunk := ZChunk{Off: off, Depth: depths.get(end - off), Color: colors.get(end - off)}
		copy(chunk.Depth, z.Depth[off:end])
		copy(chunk.Color, z.Color[off:end])
		if err := ctx.Write(out, core.Buffer{Payload: chunk, Size: chunk.Bytes()}); err != nil {
			return err
		}
	}
	depths.put(z.Depth)
	colors.put(z.Color)
	return nil
}

// RasterZFilter renders triangle batches into a private full z-buffer and
// transmits the whole buffer at end-of-work.
type RasterZFilter struct {
	In, Out string
	z       *render.ZBuffer // the per-unit-of-work accumulator
	rr      render.Raster   // reset every unit of work, keeping its scratch
}

// Init implements core.Filter: the z-buffer is initialized per unit of work
// (paper §3.1.2), on planes from the free lists — those M handed back after
// merging an earlier frame — so clearing takes the place of allocating. The
// filter discloses that it wants large buffers for the frame dump; the WPA
// variant instead asks for small ones (paper §2: filters disclose buffer
// bounds, the runtime picks the size).
func (f *RasterZFilter) Init(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	ctx.DeclareBuffer(f.Out, ZFrameBufferBytes, 0)
	f.z = clearedZBuffer(view)
	f.rr.Reset(view.Camera, view.Width, view.Height)
	return nil
}

// clearedZBuffer returns a cleared z-buffer for view on planes from the
// free lists.
func clearedZBuffer(view View) *render.ZBuffer {
	n := view.Width * view.Height
	z := &render.ZBuffer{W: view.Width, H: view.Height, Depth: depths.get(n), Color: colors.get(n)}
	z.Clear()
	return z
}

// Process implements core.Filter.
func (f *RasterZFilter) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			// End-of-work marker received: enter the pixel merging phase.
			return sendZBuffer(ctx, f.z, f.Out)
		}
		tb, ok := b.Payload.(TriBatch)
		if !ok {
			return fmt.Errorf("isoviz: raster got %T", b.Payload)
		}
		f.rr.DrawMesh(&tb.Mesh, f.z)
		recycleMesh(tb.Mesh)
	}
}

// Finalize implements core.Filter.
func (f *RasterZFilter) Finalize(core.Ctx) error {
	f.z = nil // the planes left with the frame (sendZBuffer)
	return nil
}

// ---- Raster filter (Ra), active pixel variant ----

// RasterAPFilter renders triangle batches through the Active Pixel
// algorithm: winning pixels stream to the merge filter in fixed-size
// batches while rasterization continues, overlapping raster and merge with
// no synchronization point (paper §3.1.2).
type RasterAPFilter struct {
	In, Out string
	// Band and Bands, when Bands > 0, restrict the filter to band Band of
	// Bands equal horizontal strips of the image: the band rasterizers of
	// the partitioned pipeline.
	Band, Bands int

	view View
	rr   render.Raster // reset every unit of work, keeping its scratch
	ap   *render.ActivePixels
	ctx  core.Ctx // the running Process call's, which the WPA's flushes write to
	werr error    // the unit of work's first failed write
}

// Init implements core.Filter. Buffer sizes resolve after the init phase,
// so the WPA itself is sized on each Process call.
func (f *RasterAPFilter) Init(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	ctx.DeclareBuffer(f.Out, 0, WPABufferBytes)
	f.view = view
	return nil
}

// Process implements core.Filter.
func (f *RasterAPFilter) Process(ctx core.Ctx) error {
	f.rr.Reset(f.view.Camera, f.view.Width, f.view.Height)
	if f.Bands > 0 {
		f.rr.SetScissor(render.Band(f.view.Height, f.Bands, f.Band))
	}
	capPixels := max(ctx.BufferBytes(f.Out)/render.PixelBytes, 1)
	f.ap = render.NewActivePixels(f.view.Width, f.view.Height, capPixels, f.send)
	f.ctx, f.werr = ctx, nil
	defer func() { f.ctx = nil }()
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			f.ap.FlushRemaining()
			return f.werr
		}
		tb, ok := b.Payload.(TriBatch)
		if !ok {
			return fmt.Errorf("isoviz: raster got %T", b.Payload)
		}
		f.rr.DrawMesh(&tb.Mesh, f.ap)
		recycleMesh(tb.Mesh)
		// All triangles of this input buffer processed: ship the WPA
		// (paper §3.1.2).
		f.ap.FlushRemaining()
		if f.werr != nil {
			return f.werr
		}
	}
}

// send writes a WPA flush's winning pixels as one buffer.
func (f *RasterAPFilter) send(px []render.Pixel) {
	if f.werr != nil {
		return
	}
	batch := PixBatch{Pixels: pixels.get(len(px))}
	copy(batch.Pixels, px)
	f.werr = f.ctx.Write(f.Out, core.Buffer{Payload: batch, Size: batch.Bytes()})
}

// Finalize implements core.Filter.
func (f *RasterAPFilter) Finalize(core.Ctx) error {
	f.ap = nil
	return nil
}

// ---- Merge filter (M) ----

// MergeFilter composites partial results (z-buffer chunks or winning-pixel
// batches) into the final image. Exactly one copy runs (paper §4.1); it is
// the combine filter required because raster copies hold accumulator
// state.
//
// The cleared pixel (InfDepth, Background) is the identity of the merge
// order, and every pixel of a ZChunk lies at or in front of it (see
// ZChunk). So merging a unit of work's first input, when that is a
// whole-frame ZChunk, into cleared planes would reproduce the chunk bit for
// bit: M adopts it as its accumulator instead. Any other first input starts
// the accumulator on cleared planes.
type MergeFilter struct {
	// Ins are the input streams, read in order: the standard pipelines'
	// one pixel stream, or the partitioned pipeline's one per screen band.
	Ins []string

	view  View
	z     *render.ZBuffer // nil until the unit of work's first input
	final *render.ZBuffer
	// Received counts buffers merged, for experiment accounting.
	Received int64
}

// Init implements core.Filter: the previous unit of work's result planes
// go back to the free lists, and the accumulator waits for the first input.
func (f *MergeFilter) Init(ctx core.Ctx) error {
	if f.final != nil {
		depths.put(f.final.Depth)
		colors.put(f.final.Color)
		f.final = nil
	}
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	f.view, f.z = view, nil
	return nil
}

// acc returns the unit of work's accumulator, starting it on cleared planes
// if no input has arrived yet.
func (f *MergeFilter) acc() *render.ZBuffer {
	if f.z == nil {
		f.z = clearedZBuffer(f.view)
	}
	return f.z
}

// Process implements core.Filter.
func (f *MergeFilter) Process(ctx core.Ctx) error {
	w, h := f.view.Width, f.view.Height
	for _, in := range f.Ins {
		for {
			b, ok := ctx.Read(in)
			if !ok {
				break
			}
			f.Received++
			switch p := b.Payload.(type) {
			case ZChunk:
				n := len(p.Depth)
				if len(p.Color) != n || p.Off < 0 || p.Off > w*h-n {
					return fmt.Errorf("%w: %d depths and %d colors at pixel %d of a %dx%d frame",
						ErrZChunkBounds, n, len(p.Color), p.Off, w, h)
				}
				if f.z == nil && n == w*h { // a whole frame (so Off is 0) comes first: adopt it
					f.z = &render.ZBuffer{W: w, H: h, Depth: p.Depth, Color: p.Color}
					continue
				}
				f.acc().MergeRange(p.Off, p.Depth, p.Color)
				depths.put(p.Depth)
				colors.put(p.Color)
			case PixBatch:
				render.MergePixels(f.acc(), p.Pixels)
				pixels.put(p.Pixels)
			default:
				return fmt.Errorf("isoviz: merge got %T", b.Payload)
			}
		}
	}
	return nil
}

// Finalize implements core.Filter: the merged frame becomes the result
// delivered to the client.
func (f *MergeFilter) Finalize(core.Ctx) error {
	f.final = f.acc()
	f.z = nil
	return nil
}

// Result returns the image produced by the last completed unit of work. It
// is valid until the next unit of work starts, whose Init recycles its
// planes: read it after the run, or copy it.
func (f *MergeFilter) Result() *render.ZBuffer { return f.final }
