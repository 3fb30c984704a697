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

	// verts is DrawMesh's per-vertex scratch. It is the Raster's own, so
	// rasters drawing concurrently never share it.
	verts []vert
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

// Reset returns r to the Raster NewRaster(cam, w, h) builds, keeping
// DrawMesh's scratch, so one Raster can serve frame after frame without
// growing it anew.
func (r *Raster) Reset(cam geom.Camera, w, h int) {
	verts := r.verts
	*r = *NewRaster(cam, w, h)
	r.verts = verts
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

// DrawAll rasterizes a batch of triangles exactly as DrawMesh would the
// same triangles as a mesh, transforming each triangle's vertices anew.
// Only the bench replay calls this; removed with ROADMAP 16(c).
func (r *Raster) DrawAll(ts []geom.Triangle, out Target) {
	var v [3]vert
	for i := range ts {
		r.project(v[:], ts[i].P[:], ts[i].N[:])
		if v[0].front && v[1].front && v[2].front {
			r.fill(&v[0], &v[1], &v[2], out)
		}
	}
}

// DrawMesh rasterizes an indexed mesh into the target: each vertex is
// transformed to screen space, and its pixel-centre spans found, once; a
// triangle with any vertex behind the eye plane is culled (the screen
// rectangle clips the rest), and each vertex is shaded at most once: when
// it first colors a pixel of any triangle that uses it. Every index must
// be below len(m.P), and len(m.N) must equal len(m.P).
func (r *Raster) DrawMesh(m *geom.Mesh, out Target) {
	if cap(r.verts) < len(m.P) {
		r.verts = make([]vert, len(m.P))
	}
	vs := r.verts[:len(m.P)]
	r.project(vs, m.P, m.N)
	for i := range vs {
		v := &vs[i]
		v.x0, v.x1 = span(v.x, r.W)
		v.y0, v.y1 = span(v.y, r.H)
	}
	idx := m.Idx
	for t := 0; t+3 <= len(idx); t += 3 {
		v0, v1, v2 := &vs[idx[t]], &vs[idx[t+1]], &vs[idx[t+2]]
		if v0.front && v1.front && v2.front {
			r.draw(v0, v1, v2, out)
		}
	}
}

// vert is one vertex in screen space. Its color waits until a pixel needs
// it: shading costs more than most triangles' fill.
type vert struct {
	x, y float32 // screen position
	z    float64 // depth, rounded to float32
	// x0, x1 and y0, y1 are the vertex's pixel-centre spans per axis (see
	// span); only DrawMesh sets them.
	x0, x1, y0, y1 int32
	n              geom.Vec3
	front          bool // in front of the eye plane (w > 0)
	shaded         bool // c holds the vertex color
	c              RGB
}

// project sets vs[i] to vertex (ps[i], ns[i]) in screen space, unshaded:
// it is geom.Mat4.Apply, except that a vertex behind the eye plane
// (w <= 0) only clears front.
func (r *Raster) project(vs []vert, ps, ns []geom.Vec3) {
	m := &r.M
	for i, p := range ps {
		v := &vs[i]
		x, y, z := float64(p.X), float64(p.Y), float64(p.Z)
		w := m[12]*x + m[13]*y + m[14]*z + m[15]
		v.front, v.shaded = !(w <= 0), false
		if !v.front {
			continue
		}
		v.x = float32((m[0]*x + m[1]*y + m[2]*z + m[3]) / w)
		v.y = float32((m[4]*x + m[5]*y + m[6]*z + m[7]) / w)
		v.z = float64(float32((m[8]*x + m[9]*y + m[10]*z + m[11]) / w))
		v.n = ns[i]
	}
}

// span returns the first and last pixel centre within margin of screen
// coordinate c on an axis of n pixels, ceil(c-(0.5+margin)) and
// floor(c-(0.5-margin)), each clamped to [-1, n]: the clamp changes no
// clipped box, since -1 and n lie outside the viewport as the unclamped
// values beyond them do. Integer ceil and floor are exact for |c| < 2^63;
// beyond that, and for NaN, the span is unspecified, and draw never uses
// it: a triangle with such a vertex fails fill's rounding bound, which
// needs extents below about 2^37, where distinct float32 values that large
// lie at least 2^39 apart (and a zero extent makes the area zero).
func span(c float32, n int) (lo, hi int32) {
	a, b := float64(c)-(0.5+margin), float64(c)-(0.5-margin)
	i, j := int(a), int(b)
	if float64(i) < a {
		i++
	}
	if float64(j) > b {
		j--
	}
	return int32(min(max(i, -1), n)), int32(min(max(j, -1), n))
}

// margin widens the pixel-centre box on each side; see fill.
const margin = 1.0 / 64

// draw fills one triangle of DrawMesh, whose vertices are in front of the
// eye plane and carry their spans, exactly as fill does. Where fill's
// rounding bound holds, fill's tight box is the min and max of the
// vertices' spans, clipped: widening, ceil, floor and span's clamp are all
// monotone, so they commute with min and max over the vertices. So draw
// forms that box from integers, without fill's Ceil/Floor and clipping, and
// returns at once when it is empty — as it is for 39 % of the bench's
// dense triangles. A triangle that fails the bound, any with a non-finite
// or huge coordinate among them, goes to fill. Builtin min and max differ
// from min3 and max3 only on ±0 and NaN, which change neither a box nor
// the bound.
func (r *Raster) draw(v0, v1, v2 *vert, out Target) {
	x0, y0 := float64(v0.x), float64(v0.y)
	x1, y1 := float64(v1.x), float64(v1.y)
	x2, y2 := float64(v2.x), float64(v2.y)
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	wx, wy := max(x0, x1, x2)-min(x0, x1, x2), max(y0, y1, y2)-min(y0, y1, y2)
	if !(area*area > 0x1p-37*max(wx, wy)*(wx+1.5)*(wx+1.5)*(wy+1.5)*(wy+1.5)) {
		r.fill(v0, v1, v2, out)
		return
	}
	r.Triangles++
	minX, maxX := max(int(min(v0.x0, v1.x0, v2.x0)), 0), min(int(max(v0.x1, v1.x1, v2.x1)), r.W-1)
	minY, maxY := max(int(min(v0.y0, v1.y0, v2.y0)), 0), min(int(max(v0.y1, v1.y1, v2.y1)), r.H-1)
	if r.scissorY1 > 0 {
		minY, maxY = max(minY, r.scissorY0), min(maxY, r.scissorY1-1)
	}
	if minX <= maxX && minY <= maxY {
		r.scan(v0, v1, v2, minX, maxX, minY, maxY, area, out)
	}
}

// fill scan-converts one triangle whose vertices are in front of the eye
// plane, shading and filling with interpolated depth and color; DrawAll
// fills here, and draw for the triangles its integer box cannot serve.
// Pixel centers are sampled at (x+0.5, y+0.5).
// Isosurface triangles are about a pixel in size, so per-triangle work
// dominates: shading waits until a pixel center is covered, and the three
// edge tests of a visited pixel join into one branch, because which of
// them fails is unpredictable.
//
// The loop visits only the pixel centers within margin m of the projected
// extent, ceil(min-0.5-m) … floor(max-0.5+m) per axis — on average one
// center per triangle where the floor/ceil box holds eight. Skipping a
// center whose computed weights include a negative one cannot change the
// output, and the others are evaluated by the same formula. Why every
// skipped center has one: with u = 2^-53, T = 2(Wx+1.5)(Wy+1.5)/|area| for
// extents Wx, Wy, each weight computed for a center of the floor/ceil box
// is within 17uT² of its exact value. Since the exact weights sum to 1 and
// reproduce the center, one that lies more than m beyond the x extent has
// an exact weight below -m/(2Wx) (likewise for y). So the tight box loses
// nothing when 32uT² ≤ m/(2·max(Wx,Wy)), i.e. area² ≥ 2^-39·max(Wx,Wy)·
// (Wx+1.5)²(Wy+1.5)²; the test below asks for four times that, to absorb
// its own rounding. Pixel-sized triangles pass it by orders of magnitude
// (63 of the 234k in the bench's dense frame fail it); needle slivers and
// far off-screen vertices may not, and keep the floor/ceil box. So does
// any non-finite screen x or y: the
// area or the bound is then NaN or +Inf and the test is false — which
// matters, because NaN weights pass the < 0 tests and fill that whole box.
func (r *Raster) fill(v0, v1, v2 *vert, out Target) {
	r.Triangles++

	// Barycentric fill in float64 for watertight edge behavior.
	x0, y0 := float64(v0.x), float64(v0.y)
	x1, y1 := float64(v1.x), float64(v1.y)
	x2, y2 := float64(v2.x), float64(v2.y)
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)

	// Screen bounding box, clipped to the viewport.
	lx, hx := float64(min3(v0.x, v1.x, v2.x)), float64(max3(v0.x, v1.x, v2.x))
	ly, hy := float64(min3(v0.y, v1.y, v2.y)), float64(max3(v0.y, v1.y, v2.y))
	var minX, maxX, minY, maxY int
	if wx, wy := hx-lx, hy-ly; area*area > 0x1p-37*max(wx, wy)*(wx+1.5)*(wx+1.5)*(wy+1.5)*(wy+1.5) {
		minX, maxX = int(math.Ceil(lx-(0.5+margin))), int(math.Floor(hx-(0.5-margin)))
		minY, maxY = int(math.Ceil(ly-(0.5+margin))), int(math.Floor(hy-(0.5-margin)))
	} else {
		minX, maxX = int(math.Floor(lx)), int(math.Ceil(hx))
		minY, maxY = int(math.Floor(ly)), int(math.Ceil(hy))
	}
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
	if minX > maxX || minY > maxY || area == 0 {
		return
	}
	r.scan(v0, v1, v2, minX, maxX, minY, maxY, area, out)
}

// scan visits the pixel centres of the box [minX, maxX] × [minY, maxY],
// which lies inside the viewport and scissor band, and puts every centre
// the triangle covers. area is the triangle's nonzero doubled signed area.
func (r *Raster) scan(v0, v1, v2 *vert, minX, maxX, minY, maxY int, area float64, out Target) {
	x0, y0 := float64(v0.x), float64(v0.y)
	x1, y1 := float64(v1.x), float64(v1.y)
	x2, y2 := float64(v2.x), float64(v2.y)
	z0, z1, z2 := v0.z, v1.z, v2.z
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
				sc = [3]RGB{r.shade(v0), r.shade(v1), r.shade(v2)}
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

// shade returns v's color, shading it on first use.
func (r *Raster) shade(v *vert) RGB {
	if !v.shaded {
		v.c, v.shaded = r.shadeVertex(v.n), true
	}
	return v.c
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
