package isoviz

import (
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/render"
)

// Model filters: workload-statistics twins of the real filters, for the
// simulated engine. They produce buffers with the same counts and sizes the
// real filters would (triangle batches packed to the stream buffer size and
// flushed per input buffer, full z-buffer frames at end-of-work, winning
// pixel batches streamed as the WPA fills) and charge calibrated CPU and
// disk costs instead of doing the math. The per-chunk statistics come from
// a Workload estimator, so data skew drives load exactly as it would with
// real data.

// MChunk is the model R->E payload: one chunk's workload statistics.
type MChunk struct {
	Chunk int
	Stats ChunkStats
}

// MTris is the model E->Ra payload: a batch of `Count` triangles.
type MTris struct{ Count int }

// MZPix is the model Ra->M payload of the z-buffer algorithm: a frame
// slice of `Pixels` z-buffer entries.
type MZPix struct{ Pixels int }

// MAPix is the model Ra->M payload of the active-pixel algorithm: a batch
// of `Entries` winning pixels.
type MAPix struct{ Entries int }

// ModelRead mirrors ReadFilter: disk time per chunk plus buffer-management
// CPU, then one buffer per chunk.
type ModelRead struct {
	core.BaseFilter
	W      *Workload
	Dist   *dataset.Distribution
	Assign Assign
	Out    string
	Costs  CostModel
}

func (f *ModelRead) diskOf(chunk int) int {
	if f.Dist == nil {
		return 0
	}
	return dataset.DiskOfChunk(f.W.DS, f.Dist, chunk).Disk
}

// Process implements core.Filter.
func (f *ModelRead) Process(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	for _, chunk := range f.Assign(ctx) {
		st := f.W.Stats(chunk, view.Timestep)
		ctx.ChargeDisk(f.diskOf(chunk), st.Bytes)
		ctx.Compute(float64(st.Bytes) * f.Costs.ReadCPUPerByte)
		if err := ctx.Write(f.Out, core.Buffer{Payload: MChunk{Chunk: chunk, Stats: st}, Size: st.Bytes}); err != nil {
			return err
		}
	}
	return nil
}

// modelTriEmitter packs modeled triangles into stream buffers with the
// same policy as the real meshPacker: emit when full, flush at the end of
// each input chunk.
type modelTriEmitter struct {
	out     string
	capTris int
	pending int
}

func newModelTriEmitter(ctx core.Ctx, out string) *modelTriEmitter {
	capTris := ctx.BufferBytes(out) / geom.TriangleBytes
	if capTris < 1 {
		capTris = 1
	}
	return &modelTriEmitter{out: out, capTris: capTris}
}

// add accounts for `tris` freshly generated triangles whose generation
// costs perTriCost each. Compute is charged incrementally as the buffer
// fills — mirroring the real extract filter, which interleaves marching
// cubes with buffer emission rather than bursting a chunk's buffers out
// back to back (burstiness would distort demand-driven scheduling).
func (e *modelTriEmitter) add(ctx core.Ctx, tris int, perTriCost float64) error {
	for tris > 0 {
		slice := e.capTris - e.pending
		if slice > tris {
			slice = tris
		}
		ctx.Compute(float64(slice) * perTriCost)
		e.pending += slice
		tris -= slice
		if e.pending >= e.capTris {
			e.pending = 0
			b := MTris{Count: e.capTris}
			if err := ctx.Write(e.out, core.Buffer{Payload: b, Size: e.capTris * geom.TriangleBytes}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *modelTriEmitter) flush(ctx core.Ctx) error {
	if e.pending == 0 {
		return nil
	}
	b := MTris{Count: e.pending}
	n := e.pending
	e.pending = 0
	return ctx.Write(e.out, core.Buffer{Payload: b, Size: n * geom.TriangleBytes})
}

// ModelExtract mirrors ExtractFilter.
type ModelExtract struct {
	core.BaseFilter
	In, Out string
	Costs   CostModel
}

// Process implements core.Filter.
func (f *ModelExtract) Process(ctx core.Ctx) error {
	em := newModelTriEmitter(ctx, f.Out)
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			return nil
		}
		mc, ok := b.Payload.(MChunk)
		if !ok {
			return fmt.Errorf("isoviz: model extract got %T", b.Payload)
		}
		// The cell scan is charged up front, triangle generation as the
		// buffers fill.
		ctx.Compute(float64(mc.Stats.Cells) * f.Costs.CellSeconds)
		if err := em.add(ctx, mc.Stats.Tris, f.Costs.TriGenSeconds); err != nil {
			return err
		}
		if err := em.flush(ctx); err != nil {
			return err
		}
	}
}

// modelAPEmitter streams winning-pixel entries like the real WPA: full
// batches whenever the array fills, remainder at the end of each input
// buffer.
type modelAPEmitter struct {
	out        string
	capEntries int
	acc        float64
}

func newModelAPEmitter(ctx core.Ctx, out string) *modelAPEmitter {
	capE := min(ctx.BufferBytes(out), WPABufferBytes) / render.PixelBytes
	if capE < 1 {
		capE = 1
	}
	return &modelAPEmitter{out: out, capEntries: capE}
}

func (e *modelAPEmitter) add(ctx core.Ctx, entries float64) error {
	e.acc += entries
	for e.acc >= float64(e.capEntries) {
		e.acc -= float64(e.capEntries)
		b := MAPix{Entries: e.capEntries}
		if err := ctx.Write(e.out, core.Buffer{Payload: b, Size: e.capEntries * render.PixelBytes}); err != nil {
			return err
		}
	}
	return nil
}

func (e *modelAPEmitter) flushInput(ctx core.Ctx) error {
	n := int(e.acc)
	if n < 1 {
		return nil
	}
	e.acc -= float64(n)
	b := MAPix{Entries: n}
	return ctx.Write(e.out, core.Buffer{Payload: b, Size: n * render.PixelBytes})
}

// emitModelZFrame ships a full modeled z-buffer in fixed-size buffers (the
// z-buffer algorithm's pixel-merging phase).
func emitModelZFrame(ctx core.Ctx, view View, out string) error {
	pxPerBuf := max(ctx.BufferBytes(out), ZFrameBufferBytes) / render.ZPixelBytes
	if pxPerBuf < 1 {
		pxPerBuf = 1
	}
	total := view.Width * view.Height
	for off := 0; off < total; off += pxPerBuf {
		n := pxPerBuf
		if off+n > total {
			n = total - off
		}
		if err := ctx.Write(out, core.Buffer{Payload: MZPix{Pixels: n}, Size: n * render.ZPixelBytes}); err != nil {
			return err
		}
	}
	return nil
}

// ModelRaster mirrors RasterZFilter / RasterAPFilter depending on Alg.
type ModelRaster struct {
	In, Out string
	Alg     Algorithm
	W       *Workload
	Costs   CostModel

	view     View
	pxPerTri float64
	ap       *modelAPEmitter
}

// Init implements core.Filter.
func (f *ModelRaster) Init(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	f.view = view
	f.pxPerTri = f.Costs.PxPerTri(view, f.W.TotalTris(view.Timestep))
	f.ap = nil
	return nil
}

// Process implements core.Filter.
func (f *ModelRaster) Process(ctx core.Ctx) error {
	if f.Alg == ActivePixel {
		f.ap = newModelAPEmitter(ctx, f.Out)
	}
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			if f.Alg == ZBuffer {
				return emitModelZFrame(ctx, f.view, f.Out)
			}
			return f.ap.flushInput(ctx)
		}
		mt, ok := b.Payload.(MTris)
		if !ok {
			return fmt.Errorf("isoviz: model raster got %T", b.Payload)
		}
		ctx.Compute(f.Costs.RasterSeconds(mt.Count, f.pxPerTri))
		if f.Alg == ActivePixel {
			if err := f.ap.add(ctx, float64(mt.Count)*f.pxPerTri*f.Costs.APDedupFactor); err != nil {
				return err
			}
			if err := f.ap.flushInput(ctx); err != nil {
				return err
			}
		}
	}
}

// Finalize implements core.Filter.
func (f *ModelRaster) Finalize(core.Ctx) error { return nil }

// ModelMerge mirrors MergeFilter: per-pixel merge cost while buffers
// arrive, plus final image generation in Finalize. One copy runs.
type ModelMerge struct {
	In    string
	Costs CostModel

	view         View
	Received     int64
	PixelsMerged int64
}

// Init implements core.Filter.
func (f *ModelMerge) Init(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	f.view = view
	return nil
}

// Process implements core.Filter.
func (f *ModelMerge) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read(f.In)
		if !ok {
			return nil
		}
		f.Received++
		switch p := b.Payload.(type) {
		case MZPix:
			ctx.Compute(float64(p.Pixels) * f.Costs.MergePixelSeconds)
			f.PixelsMerged += int64(p.Pixels)
		case MAPix:
			ctx.Compute(float64(p.Entries) * f.Costs.MergePixelSeconds)
			f.PixelsMerged += int64(p.Entries)
		default:
			return fmt.Errorf("isoviz: model merge got %T", b.Payload)
		}
	}
}

// Finalize implements core.Filter: extract colors from the accumulator and
// generate the image sent to the client.
func (f *ModelMerge) Finalize(ctx core.Ctx) error {
	ctx.Compute(float64(f.view.Width) * float64(f.view.Height) * f.Costs.ImageGenSeconds)
	return nil
}

// ModelSpec assembles a model pipeline graph with the same filter and
// stream names as PipelineSpec, so placements are interchangeable.
type ModelSpec struct {
	Config Config
	Alg    Algorithm
	W      *Workload
	Dist   *dataset.Distribution
	Assign Assign
	Costs  CostModel
}

// Build constructs the model graph: the same grouping-driven builder as
// PipelineSpec.Build, so a fused model filter is the model stages fused.
func (s ModelSpec) Build() *core.Graph {
	return s.Config.build([...]core.FilterFactory{
		func() core.Filter {
			return &ModelRead{W: s.W, Dist: s.Dist, Assign: s.Assign, Out: StreamVoxels, Costs: s.Costs}
		},
		func() core.Filter { return &ModelExtract{In: StreamVoxels, Out: StreamTriangles, Costs: s.Costs} },
		func() core.Filter {
			return &ModelRaster{In: StreamTriangles, Out: StreamPixels, Alg: s.Alg, W: s.W, Costs: s.Costs}
		},
	}, func() core.Filter { return &ModelMerge{In: StreamPixels, Costs: s.Costs} })
}
