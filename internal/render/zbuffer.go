// Package render implements the rendering substrate of the isosurface
// application: perspective triangle rasterization with Gouraud shading,
// plus the paper's two hidden-surface removal schemes —
//
//   - Z-buffer rendering [33]: a full-frame depth+color accumulator,
//     transmitted wholesale to the merge filter at end-of-work; and
//   - Active Pixel rendering [22]: a sparse z-buffer (Winning Pixel Array
//     indexed by a Modified Scanline Array) that streams winning pixels in
//     fixed-size batches as they are produced, so rasterization and merging
//     pipeline without a synchronization barrier.
//
// All depth tests use one total order (closer depth wins; exact ties fall
// back to the lexicographically smaller color), which makes pixel merging
// commutative, associative, and idempotent: the final image is independent
// of how triangles are partitioned across transparent filter copies and of
// buffer arrival order. The package's property tests verify this.
package render

import (
	"image"
	"image/color"
)

// RGB is a packed 24-bit pixel color.
type RGB struct{ R, G, B uint8 }

// Less orders colors lexicographically; the tie-break that keeps pixel
// merging deterministic.
func (c RGB) Less(o RGB) bool {
	if c.R != o.R {
		return c.R < o.R
	}
	if c.G != o.G {
		return c.G < o.G
	}
	return c.B < o.B
}

// pack is c as the 24-bit integer R<<16|G<<8|B, whose integer order is
// Less's lexicographic order: one compare instead of up to three branches.
func (c RGB) pack() uint32 { return uint32(c.R)<<16 | uint32(c.G)<<8 | uint32(c.B) }

// Background is the frame background color.
var Background = RGB{18, 20, 34}

// InfDepth is the clear value of the depth plane.
const InfDepth = float32(3.4e38)

// ZBuffer is a full-frame depth and color accumulator.
type ZBuffer struct {
	W, H  int
	Depth []float32
	Color []RGB
}

// NewZBuffer returns a cleared w×h z-buffer.
func NewZBuffer(w, h int) *ZBuffer {
	z := &ZBuffer{W: w, H: h, Depth: make([]float32, w*h), Color: make([]RGB, w*h)}
	z.Clear()
	return z
}

// Clear resets every pixel to background at infinite depth.
func (z *ZBuffer) Clear() {
	fill(z.Depth, InfDepth)
	fill(z.Color, Background)
}

// fill sets every element of s to v: one store, then the filled prefix
// copied onto the rest, doubling each time, so the work is memmoves.
func fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// Put deposits a shaded sample, keeping the closer of the existing and new
// samples (ties: smaller color).
func (z *ZBuffer) Put(x, y int, depth float32, c RGB) {
	if x < 0 || y < 0 || x >= z.W || y >= z.H {
		return
	}
	i := y*z.W + x
	if depth < z.Depth[i] || (depth == z.Depth[i] && c.Less(z.Color[i])) {
		z.Depth[i] = depth
		z.Color[i] = c
	}
}

// MergeFrom folds another z-buffer of the same dimensions into z.
func (z *ZBuffer) MergeFrom(o *ZBuffer) {
	if z.W != o.W || z.H != o.H {
		panic("render: merging z-buffers of different sizes")
	}
	z.MergeRange(0, o.Depth, o.Color)
}

// MergeRange folds a contiguous row-major slice of another buffer's planes,
// starting at pixel offset off. It is how the merge filter consumes the
// fixed-size buffers a z-buffer is shipped in. colors holds one color per
// depth, and the run must lie inside z.
func (z *ZBuffer) MergeRange(off int, depth []float32, colors []RGB) {
	n := len(depth)
	zd, zc, colors := z.Depth[off:][:n], z.Color[off:][:n], colors[:n]
	for i, d := range depth {
		if d < zd[i] || (d == zd[i] && colors[i].pack() < zc[i].pack()) {
			zd[i] = d
			zc[i] = colors[i]
		}
	}
}

// ActiveCount returns the number of pixels with at least one sample (the
// paper's "active pixel locations").
func (z *ZBuffer) ActiveCount() int {
	n := 0
	for _, d := range z.Depth {
		if d != InfDepth {
			n++
		}
	}
	return n
}

// Image converts the color plane to an image.
func (z *ZBuffer) Image() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, z.W, z.H))
	for y := 0; y < z.H; y++ {
		for x := 0; x < z.W; x++ {
			c := z.Color[y*z.W+x]
			img.SetRGBA(x, y, color.RGBA{c.R, c.G, c.B, 255})
		}
	}
	return img
}

// Equal reports whether two buffers hold identical images and depths.
func (z *ZBuffer) Equal(o *ZBuffer) bool {
	if z.W != o.W || z.H != o.H {
		return false
	}
	for i := range z.Depth {
		if z.Depth[i] != o.Depth[i] || z.Color[i] != o.Color[i] {
			return false
		}
	}
	return true
}

// ZPixelBytes is the serialized size of one z-buffer pixel (depth + color),
// used for stream accounting when shipping full frames to the merge filter.
const ZPixelBytes = 4 + 3
