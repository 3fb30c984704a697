package render

import (
	"math"

	"datacutter/internal/geom"
)

// Target receives shaded samples from the rasterizer; both *ZBuffer and
// *ActivePixels implement it.
type Target interface {
	Put(x, y int, depth float32, c RGB)
}

var (
	_ Target = (*ZBuffer)(nil)
	_ Target = (*ActivePixels)(nil)
)

// Raster transforms, shades, and scan-converts triangles. It corresponds to
// the transformation + shading + hidden-surface-removal work of the paper's
// raster filter.
type Raster struct {
	W, H int
	M    geom.Mat4 // world-to-pixel transform

	// Light is the unit direction from surface toward the light.
	Light geom.Vec3
	// Ambient and Diffuse are the shading coefficients.
	Ambient, Diffuse float64
	// Base is the surface color at full intensity.
	Base [3]float64

	// Triangles and Pixels count work done, for cost calibration.
	Triangles int64
	Pixels    int64

	// scissor restricts rasterization to scanlines [scissorY0, scissorY1)
	// when scissorY1 > 0 — the image-space partitioning of the paper's
	// proposed hybrid strategy (§6): each raster copy owns a screen band.
	scissorY0, scissorY1 int
}

// SetScissor restricts output to scanlines y0 <= y < y1.
func (r *Raster) SetScissor(y0, y1 int) {
	r.scissorY0, r.scissorY1 = y0, y1
}

// Band returns the half-open scanline interval [y0, y1) of band i of n
// equal horizontal strips of an h-pixel-tall image.
func Band(h, n, i int) (y0, y1 int) {
	return i * h / n, (i + 1) * h / n
}

// BandOf returns the band containing scanline y (the inverse of Band,
// exact even when h is not divisible by n).
func BandOf(h, n, y int) int {
	if y < 0 {
		return 0
	}
	if y >= h {
		return n - 1
	}
	i := y * n / h
	if i+1 < n {
		if s, _ := Band(h, n, i+1); y >= s {
			i++
		}
	}
	if s, _ := Band(h, n, i); y < s {
		i--
	}
	return i
}

// NewRaster builds a rasterizer for a w×h screen viewed through cam.
func NewRaster(cam geom.Camera, w, h int) *Raster {
	return &Raster{
		W: w, H: h,
		M:       cam.Matrix(w, h),
		Light:   geom.V(0.4, 0.8, 0.45).Normalize(),
		Ambient: 0.18,
		Diffuse: 0.82,
		Base:    [3]float64{168, 196, 255},
	}
}

// shadeVertex computes a Gouraud vertex color from its normal (two-sided
// Lambert: isosurfaces have no intrinsic orientation toward the camera).
func (r *Raster) shadeVertex(n geom.Vec3) RGB {
	lambert := float64(n.Dot(r.Light))
	if lambert < 0 {
		lambert = -lambert
	}
	k := r.Ambient + r.Diffuse*lambert
	clamp := func(v float64) uint8 {
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return uint8(v)
	}
	return RGB{clamp(r.Base[0] * k), clamp(r.Base[1] * k), clamp(r.Base[2] * k)}
}

// Draw rasterizes one triangle into the target: transform to screen space,
// clip (triangles reaching behind the eye plane are culled; the screen
// rectangle clips the rest), shade, and fill with interpolated depth and
// color. Pixel centers are sampled at (x+0.5, y+0.5).
func (r *Raster) Draw(t geom.Triangle, out Target) {
	r.draw(&t, out)
}

// DrawAll rasterizes a batch.
func (r *Raster) DrawAll(ts []geom.Triangle, out Target) {
	for i := range ts {
		r.draw(&ts[i], out)
	}
}

// draw is Draw without the 72-byte triangle copy. Isosurface triangles are
// about a pixel in size, so per-triangle work dominates: shading waits for
// the first covered pixel center, and the three edge tests of a bounding-box
// pixel join into one branch, because which of them fails is unpredictable.
func (r *Raster) draw(t *geom.Triangle, out Target) {
	var sp [3]geom.Vec3
	for i := range t.P {
		p, w := r.M.Apply(t.P[i])
		if w <= 0 {
			return // behind the eye plane
		}
		sp[i] = p
	}
	r.Triangles++

	// Screen bounding box, clipped to the viewport.
	minX := int(math.Floor(float64(min3(sp[0].X, sp[1].X, sp[2].X))))
	maxX := int(math.Ceil(float64(max3(sp[0].X, sp[1].X, sp[2].X))))
	minY := int(math.Floor(float64(min3(sp[0].Y, sp[1].Y, sp[2].Y))))
	maxY := int(math.Ceil(float64(max3(sp[0].Y, sp[1].Y, sp[2].Y))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > r.W-1 {
		maxX = r.W - 1
	}
	if maxY > r.H-1 {
		maxY = r.H - 1
	}
	if r.scissorY1 > 0 {
		if minY < r.scissorY0 {
			minY = r.scissorY0
		}
		if maxY > r.scissorY1-1 {
			maxY = r.scissorY1 - 1
		}
	}
	if minX > maxX || minY > maxY {
		return
	}

	// Barycentric fill in float64 for watertight edge behavior.
	x0, y0, z0 := float64(sp[0].X), float64(sp[0].Y), float64(sp[0].Z)
	x1, y1, z1 := float64(sp[1].X), float64(sp[1].Y), float64(sp[1].Z)
	x2, y2, z2 := float64(sp[2].X), float64(sp[2].Y), float64(sp[2].Z)
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if area == 0 {
		return
	}
	inv := 1 / area
	var sc [3]RGB
	shaded := false
	for y := minY; y <= maxY; y++ {
		py := float64(y) + 0.5
		dy0, dy1, dy2 := y0-py, y1-py, y2-py
		for x := minX; x <= maxX; x++ {
			px := float64(x) + 0.5
			w0 := ((x1-px)*dy2 - (x2-px)*dy1) * inv
			w1 := ((x2-px)*dy0 - (x0-px)*dy2) * inv
			w2 := 1 - w0 - w1
			if negative(w0)|negative(w1)|negative(w2) != 0 {
				continue
			}
			if !shaded {
				sc = [3]RGB{r.shadeVertex(t.N[0]), r.shadeVertex(t.N[1]), r.shadeVertex(t.N[2])}
				shaded = true
			}
			depth := float32(w0*z0 + w1*z1 + w2*z2)
			c := RGB{
				lerp3(sc[0].R, sc[1].R, sc[2].R, w0, w1, w2),
				lerp3(sc[0].G, sc[1].G, sc[2].G, w0, w1, w2),
				lerp3(sc[0].B, sc[1].B, sc[2].B, w0, w1, w2),
			}
			out.Put(x, y, depth, c)
			r.Pixels++
		}
	}
}

// negative is w < 0 as a bit (a SETcc, not a branch).
func negative(w float64) uint8 {
	if w < 0 {
		return 1
	}
	return 0
}

func lerp3(a, b, c uint8, wa, wb, wc float64) uint8 {
	v := wa*float64(a) + wb*float64(b) + wc*float64(c)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func min3(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
