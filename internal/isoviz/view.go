// Package isoviz implements the paper's case study: the isosurface
// rendering application decomposed into DataCutter filters.
//
// The real filters (filters.go, combined.go) run on either engine with
// actual data: a read filter (R) retrieves volume chunks, an extract filter
// (E) runs marching-cubes isosurface extraction, a raster filter (Ra)
// renders triangles with either the z-buffer or the active-pixel algorithm,
// and a merge filter (M) composites partial results into the final image
// (filters such as Ra keep internal state — the accumulator — so a combine
// stage is required for transparent copying; paper §1, §3).
//
// The model filters (model.go) are workload-statistics twins of the real
// filters for the simulated engine: they move buffers with the same counts
// and sizes and charge calibrated CPU/disk costs instead of doing the math,
// which is how the paper-scale (25 GB) experiments run in virtual time.
// Their statistics come from coarse extraction with the real marching-cubes
// code (workload.go), so spatial skew is preserved.
package isoviz

import (
	"errors"

	"datacutter/internal/geom"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// View is the unit-of-work descriptor: which stored timestep to render,
// from where, at what isovalue, into what image.
type View struct {
	Timestep int
	Iso      float32
	Width    int
	Height   int
	Camera   geom.Camera
}

// DefaultView renders timestep 0 at a mid-range isovalue into a 512²
// frame.
func DefaultView(iso float32) View {
	return View{Timestep: 0, Iso: iso, Width: 512, Height: 512, Camera: geom.DefaultCamera()}
}

// Stream names used by the standard graphs.
const (
	StreamVoxels    = "voxels"    // R -> E: volume chunks
	StreamTriangles = "triangles" // E -> Ra: extracted triangles
	StreamPixels    = "pixels"    // Ra -> M: z-buffer chunks or pixel batches
)

// TriBatch is the payload of one E->Ra buffer: triangles of one chunk as
// an indexed mesh, each vertex stored once.
type TriBatch struct {
	geom.Mesh
}

// Bytes returns the batch's size in the stream accounting unit, a
// triangle list's geom.TriangleBytes per triangle — the unit the simulated
// engine charges and the buffer size is counted in. The mesh itself is
// smaller on the wire: 24 B per vertex and 12 B per triangle.
func (t TriBatch) Bytes() int { return t.Triangles() * geom.TriangleBytes }

// ZChunk is one fixed-size slice of a z-buffer, the Ra->M payload of the
// z-buffer algorithm. Off is the starting pixel offset in row-major order.
//
// Invariant: every pixel lies at or in front of the cleared pixel
// (render.InfDepth, render.Background) in the merge order — its depth is
// below InfDepth, or equal to it with a color not after Background. Ra
// keeps it (its planes start cleared, and Put only takes a sample strictly
// in front), the decoder enforces it on chunks from a peer, and the merge
// filter relies on it when it adopts a whole frame.
type ZChunk struct {
	Off   int
	Depth []float32
	Color []render.RGB
}

// Bytes returns the chunk's serialized size.
func (z ZChunk) Bytes() int { return len(z.Depth) * render.ZPixelBytes }

// behindClear returns the index of the first pixel that breaks the ZChunk
// invariant — a NaN depth, one above InfDepth, or InfDepth with a color
// after Background — or -1.
func (z ZChunk) behindClear() int {
	for i, d := range z.Depth {
		if d < render.InfDepth {
			continue
		}
		if d != render.InfDepth || render.Background.Less(z.Color[i]) {
			return i
		}
	}
	return -1
}

// ErrZChunkBounds is the merge filter's error for a ZChunk that does not
// describe a run of the frame: its planes differ in length, or its pixels
// run outside the image.
var ErrZChunkBounds = errors.New("isoviz: z-buffer chunk outside the frame")

// ErrZChunkBehindClear is the ZChunk decoder's error for a chunk that breaks
// the ZChunk invariant.
var ErrZChunkBehindClear = errors.New("isoviz: z-buffer chunk pixel behind the cleared pixel")

// PixBatch is one flushed Winning Pixel Array, the Ra->M payload of the
// active-pixel algorithm.
type PixBatch struct {
	Pixels []render.Pixel
}

// Bytes returns the batch's serialized size.
func (p PixBatch) Bytes() int { return len(p.Pixels) * render.PixelBytes }

// Buffer-size bounds the raster filters apply to the run's buffer size on
// their output stream. The z-buffer algorithm dumps whole frames and wants
// big buffers (at least ZFrameBufferBytes); the active-pixel algorithm
// streams winning-pixel arrays and keeps them small (at most
// WPABufferBytes) so merging overlaps raster work.
const (
	ZFrameBufferBytes = 2 << 20
	WPABufferBytes    = 64 << 10
)

// VoxelBlock is the R->E payload: one chunk of the volume.
type VoxelBlock struct {
	V *volume.Volume
}

// Bytes returns the block's serialized size.
func (b VoxelBlock) Bytes() int { return b.V.Bytes() }
