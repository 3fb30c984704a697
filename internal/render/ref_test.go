package render

// The reference oracles: the triangle rasterizer and its helpers exactly as
// they stood before the per-triangle trims, and ZBuffer.Clear and
// ZBuffer.MergeRange as they stood before the block-copy fill and the
// packed-colour compare, kept verbatim (renamed only) so the properties
// below check the production kernels against the parent's bits — identical
// planes, counters, Put sequences and active-pixel flushes.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"datacutter/internal/geom"
	"datacutter/internal/mcubes"
	"datacutter/internal/volume"
)

func shadeVertexRef(r *Raster, n geom.Vec3) RGB {
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

func drawRef(r *Raster, t geom.Triangle, out Target) {
	var sp [3]geom.Vec3
	for i := 0; i < 3; i++ {
		p, w := r.M.Apply(t.P[i])
		if w <= 0 {
			return // behind the eye plane
		}
		sp[i] = p
	}
	var sc [3]RGB
	for i := 0; i < 3; i++ {
		sc[i] = shadeVertexRef(r, t.N[i])
	}
	r.Triangles++

	// Screen bounding box, clipped to the viewport.
	minX := int(math.Floor(float64(min3Ref(sp[0].X, sp[1].X, sp[2].X))))
	maxX := int(math.Ceil(float64(max3Ref(sp[0].X, sp[1].X, sp[2].X))))
	minY := int(math.Floor(float64(min3Ref(sp[0].Y, sp[1].Y, sp[2].Y))))
	maxY := int(math.Ceil(float64(max3Ref(sp[0].Y, sp[1].Y, sp[2].Y))))
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
	x0, y0 := float64(sp[0].X), float64(sp[0].Y)
	x1, y1 := float64(sp[1].X), float64(sp[1].Y)
	x2, y2 := float64(sp[2].X), float64(sp[2].Y)
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if area == 0 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		py := float64(y) + 0.5
		for x := minX; x <= maxX; x++ {
			px := float64(x) + 0.5
			w0 := ((x1-px)*(y2-py) - (x2-px)*(y1-py)) * inv
			w1 := ((x2-px)*(y0-py) - (x0-px)*(y2-py)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := float32(w0*float64(sp[0].Z) + w1*float64(sp[1].Z) + w2*float64(sp[2].Z))
			c := RGB{
				lerp3Ref(sc[0].R, sc[1].R, sc[2].R, w0, w1, w2),
				lerp3Ref(sc[0].G, sc[1].G, sc[2].G, w0, w1, w2),
				lerp3Ref(sc[0].B, sc[1].B, sc[2].B, w0, w1, w2),
			}
			out.Put(x, y, depth, c)
			r.Pixels++
		}
	}
}

func drawAllRef(r *Raster, ts []geom.Triangle, out Target) {
	for _, t := range ts {
		drawRef(r, t, out)
	}
}

func lerp3Ref(a, b, c uint8, wa, wb, wc float64) uint8 {
	v := wa*float64(a) + wb*float64(b) + wc*float64(c)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func min3Ref(a, b, c float32) float32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3Ref(a, b, c float32) float32 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func clearRef(z *ZBuffer) {
	for i := range z.Depth {
		z.Depth[i] = InfDepth
		z.Color[i] = Background
	}
}

func mergeRangeRef(z *ZBuffer, off int, depth []float32, colors []RGB) {
	for i := range depth {
		j := off + i
		if depth[i] < z.Depth[j] || (depth[i] == z.Depth[j] && colors[i].Less(z.Color[j])) {
			z.Depth[j] = depth[i]
			z.Color[j] = colors[i]
		}
	}
}

// ---- comparison harness ----

// putLog is a Target outside the package's concrete fast paths: it records
// every sample in order, so the generic path is compared call for call.
type putLog []Pixel

func (l *putLog) Put(x, y int, depth float32, c RGB) {
	*l = append(*l, Pixel{X: int32(x), Y: int32(y), Depth: depth, C: c})
}

// f32bits is a float's representation with every NaN folded onto one:
// finite results are exact regardless of operand order, but which NaN
// payload an operation propagates depends on how the compiler orders the
// operands of commutative instructions.
func f32bits(f float32) uint32 {
	if f != f {
		return 0x7fc00000
	}
	return math.Float32bits(f)
}

// pixelBits compares samples by representation.
func pixelBits(ps []Pixel) []byte {
	var b []byte
	for _, p := range ps {
		b = binary.LittleEndian.AppendUint32(b, uint32(p.X))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Y))
		b = binary.LittleEndian.AppendUint32(b, f32bits(p.Depth))
		b = append(b, p.C.R, p.C.G, p.C.B)
	}
	return b
}

func zbufferBits(z *ZBuffer) []byte {
	b := make([]byte, 0, 7*len(z.Depth))
	for i, d := range z.Depth {
		b = binary.LittleEndian.AppendUint32(b, f32bits(d))
		c := z.Color[i]
		b = append(b, c.R, c.G, c.B)
	}
	return b
}

// rasterCase is one rasterization setup: viewport, optional scissor band,
// and whether triangles go one DrawAll call at a time or in one batch.
type rasterCase struct {
	w, h     int
	band     [2]int // scissor [y0,y1) when band[1] > 0
	oneByOne bool
	capacity int        // active-pixel WPA capacity
	m        *geom.Mat4 // world-to-pixel transform; nil = the default camera's
}

func (c rasterCase) raster() *Raster {
	r := NewRaster(geom.DefaultCamera(), c.w, c.h)
	if c.m != nil {
		r.M = *c.m
	}
	if c.band[1] > 0 {
		r.SetScissor(c.band[0], c.band[1])
	}
	return r
}

// drawRun is one rasterization into each target kind.
type drawRun struct {
	r     *Raster
	log   putLog
	zb    *ZBuffer
	ap    *ActivePixels
	flush [][]Pixel
}

func newDrawRun(c rasterCase, draw func(*Raster, Target)) *drawRun {
	out := &drawRun{r: c.raster(), zb: NewZBuffer(c.w, c.h)}
	out.ap = NewActivePixels(c.w, c.h, c.capacity, func(px []Pixel) {
		out.flush = append(out.flush, append([]Pixel(nil), px...))
	})
	for _, t := range []Target{&out.log, out.zb, out.ap} {
		draw(out.r, t)
	}
	out.ap.FlushRemaining()
	return out
}

// diff reports the first difference from the reference run.
func (got *drawRun) diff(want *drawRun) error {
	switch {
	case got.r.Triangles != want.r.Triangles || got.r.Pixels != want.r.Pixels:
		return fmt.Errorf("counters %d tris %d px, reference %d tris %d px",
			got.r.Triangles, got.r.Pixels, want.r.Triangles, want.r.Pixels)
	case string(pixelBits(got.log)) != string(pixelBits(want.log)):
		return fmt.Errorf("Put sequence differs (%d vs %d samples)", len(got.log), len(want.log))
	case string(zbufferBits(got.zb)) != string(zbufferBits(want.zb)):
		return fmt.Errorf("z-buffer planes differ")
	case len(got.flush) != len(want.flush) || got.ap.Flushes != want.ap.Flushes:
		return fmt.Errorf("%d active-pixel flushes, reference %d", len(got.flush), len(want.flush))
	}
	for i := range got.flush {
		if string(pixelBits(got.flush[i])) != string(pixelBits(want.flush[i])) {
			return fmt.Errorf("active-pixel flush %d differs", i)
		}
	}
	return nil
}

// compareDraw rasterizes tris with the production kernels — DrawAll, and
// DrawMesh on the deduplicated mesh — and the reference into
// each target kind and reports the first difference.
func compareDraw(tris []geom.Triangle, c rasterCase) error {
	want := newDrawRun(c, func(r *Raster, t Target) { drawAllRef(r, tris, t) })
	got := newDrawRun(c, func(r *Raster, t Target) {
		if c.oneByOne {
			for i := range tris {
				r.DrawAll(tris[i:i+1], t)
			}
		} else {
			r.DrawAll(tris, t)
		}
	})
	if err := got.diff(want); err != nil {
		return err
	}
	mesh := dedup(tris)
	if err := newDrawRun(c, func(r *Raster, t Target) { r.DrawMesh(&mesh, t) }).diff(want); err != nil {
		return fmt.Errorf("DrawMesh: %w", err)
	}
	return nil
}

// dedup indexes tris, storing once each vertex whose position and normal
// are bit-identical to an earlier one's, as the edge cache of
// mcubes.ExtractMesh does.
func dedup(tris []geom.Triangle) geom.Mesh {
	var m geom.Mesh
	seen := map[[6]uint32]uint32{}
	for _, t := range tris {
		for i := range t.P {
			p, n := t.P[i], t.N[i]
			k := [6]uint32{math.Float32bits(p.X), math.Float32bits(p.Y), math.Float32bits(p.Z),
				math.Float32bits(n.X), math.Float32bits(n.Y), math.Float32bits(n.Z)}
			j, ok := seen[k]
			if !ok {
				j = uint32(len(m.P))
				seen[k] = j
				m.P, m.N = append(m.P, p), append(m.N, n)
			}
			m.Idx = append(m.Idx, j)
		}
	}
	return m
}

// randomTriangles mixes a marching-cubes scene (pixel-sized, vertex-sharing
// triangles, as the pipeline produces) with free triangles: large ones,
// slivers, repeated and permuted vertices, triangles behind the eye, and
// non-finite coordinates and normals.
func randomTriangles(rng *rand.Rand) []geom.Triangle {
	n := 4 + rng.Intn(20)
	v := volume.Rasterize(volume.NewPlumeField(rng.Int63(), 3), n, n, n, 0)
	min, max := v.MinMax()
	tris, _ := mcubes.Extract(v, min+(max-min)*float32(0.2+0.6*rng.Float64()), nil)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	coord := func() float32 {
		if rng.Intn(40) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float32(rng.Float64()*3 - 1)
	}
	vec := func() geom.Vec3 { return geom.V(coord(), coord(), coord()) }
	for k := rng.Intn(60); k > 0; k-- {
		var t geom.Triangle
		switch rng.Intn(4) {
		case 0: // shares vertices with the previous triangle
			if len(tris) > 0 {
				t = tris[len(tris)-1]
				t.P[0], t.P[rng.Intn(3)] = t.P[rng.Intn(3)], vec()
				break
			}
			fallthrough
		default:
			t.P = [3]geom.Vec3{vec(), vec(), vec()}
		}
		t.N = [3]geom.Vec3{vec().Normalize(), vec().Normalize(), vec().Normalize()}
		if rng.Intn(10) == 0 {
			t.P[2] = t.P[1] // zero area
		}
		tris = append(tris, t)
	}
	rng.Shuffle(len(tris)/4, func(i, j int) { tris[i], tris[j] = tris[j], tris[i] })
	return tris
}

// Property: for random scenes, viewports from 1x1 up, scissor bands, both
// targets and both entry points, DrawAll/DrawMesh match the reference
// exactly.
func TestDrawMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		if err := compareSeed(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// compareSeed is one case of the property: a random scene and setup.
func compareSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	tris := randomTriangles(rng)
	c := rasterCase{w: 1 + rng.Intn(96), h: 1 + rng.Intn(96), oneByOne: rng.Intn(3) == 0, capacity: 1 + rng.Intn(300)}
	if rng.Intn(2) == 0 {
		y0 := rng.Intn(c.h)
		c.band = [2]int{y0, y0 + 1 + rng.Intn(c.h-y0)}
	}
	if err := compareDraw(tris, c); err != nil {
		return fmt.Errorf("%+v: %w", c, err)
	}
	return nil
}

// screenTri is a triangle given in pixel coordinates: under the identity
// transform (w = 1) every coordinate lands on screen exactly as written.
func screenTri(x0, y0, x1, y1, x2, y2 float32) geom.Triangle {
	return geom.Triangle{
		P: [3]geom.Vec3{{X: x0, Y: y0, Z: 0.25}, {X: x1, Y: y1, Z: 0.5}, {X: x2, Y: y2, Z: 0.75}},
		N: [3]geom.Vec3{geom.V(0, 0, 1), geom.V(0, 1, 0), geom.V(1, 0, 0)},
	}
}

// coords views a triangle's nine position coordinates for editing.
func coords(t *geom.Triangle) [9]*float32 {
	var c [9]*float32
	for i := range t.P {
		c[3*i], c[3*i+1], c[3*i+2] = &t.P[i].X, &t.P[i].Y, &t.P[i].Z
	}
	return c
}

func ulpUp(f float32) float32   { return math.Nextafter32(f, float32(math.Inf(1))) }
func ulpDown(f float32) float32 { return math.Nextafter32(f, float32(math.Inf(-1))) }

// adversarialCases are the inputs where a pixel-centre box could diverge
// from the floor/ceil box: centres on or an ulp from vertices and edges,
// extents ending on the margin, slivers whose weights are mostly rounding,
// coordinates far off screen, non-finite coordinates, and w near 0. All but
// the last run under the identity transform on a 16x12 viewport.
func adversarialCases() map[string][]geom.Triangle {
	const m = float32(margin)
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := map[string][]geom.Triangle{}

	onCentres := []geom.Triangle{
		screenTri(2.5, 2.5, 9.5, 2.5, 2.5, 8.5),
		screenTri(3.5, 3.5, 3.5, 9.5, 10.5, 6.5),
		screenTri(0.5, 0.5, 15.5, 11.5, 0.5, 11.5),
	}
	cases["vertices on pixel centres"] = onCentres
	var nudged []geom.Triangle
	for _, base := range onCentres {
		for k := 0; k < 9; k++ {
			if k%3 == 2 {
				continue // depth
			}
			for _, f := range []func(float32) float32{ulpUp, ulpDown} {
				t := base
				p := coords(&t)[k]
				*p = f(*p)
				nudged = append(nudged, t)
			}
		}
		up, down := base, base
		for k, p := range coords(&up) {
			if k%3 != 2 {
				*p = ulpUp(*p)
				*coords(&down)[k] = ulpDown(*coords(&down)[k])
			}
		}
		nudged = append(nudged, up, down)
	}
	cases["vertices ±1 ulp from pixel centres"] = nudged

	// A tip whose coordinate ends exactly at a centre ± m (or an ulp either
	// side of that), pointing each way along each axis.
	var tips []geom.Triangle
	for _, e := range []float32{5.5 - m, 5.5, 5.5 + m} {
		for _, v := range []float32{ulpDown(e), e, ulpUp(e)} {
			tips = append(tips,
				screenTri(v, 4.5, 1.25, 1.75, 1.25, 7.25), // right extent
				screenTri(v, 4.5, 9.75, 1.75, 9.75, 7.25), // left extent
				screenTri(4.5, v, 1.75, 1.25, 7.25, 1.25), // bottom extent
				screenTri(4.5, v, 1.75, 9.75, 7.25, 9.75), // top extent
				screenTri(v, v, 1.25, 2, 2, 1.25),         // corner
			)
		}
	}
	cases["extents ending at a centre ± margin"] = tips

	slivers := []geom.Triangle{
		screenTri(0.5, 0.5, 15.5, 11.5, 15.5, ulpUp(11.5)),
		screenTri(0.5, 4.5, 15.5, 4.5, 8, ulpUp(4.5)),
		screenTri(0.5, 4.5, 15.5, ulpDown(4.5), 8, 4.5),
		screenTri(1.5, 1.5, 13.5, 7.5, 7.5, ulpUp(4.5)),
		screenTri(1.5, 1.5, 13.5, 7.5, 7.5, 4.5), // collinear: zero area
		screenTri(-1000, 4.5, 7.5, 4.5, -1000, ulpUp(4.5)),
		screenTri(-1000, 4.5, 7.5, 4.5, -1000, 4.6),
		screenTri(7.5, 4.5, 7.5+1e-6, 4.5, 7.5, 4.5+1e-6),
	}
	rng := rand.New(rand.NewSource(7))
	for _, off := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		for k := 0; k < 8; k++ {
			ax, ay := rng.Float64()*16, rng.Float64()*12
			bx, by := rng.Float64()*16, rng.Float64()*12
			s := rng.Float64()
			nx, ny := -(by - ay), bx-ax
			slivers = append(slivers, screenTri(float32(ax), float32(ay), float32(bx), float32(by),
				float32(ax+s*(bx-ax)+off*nx), float32(ay+s*(by-ay)+off*ny)))
		}
	}
	cases["needle slivers and near-collinear triangles"] = slivers

	var far []geom.Triangle
	for _, mag := range []float32{1e6, 1e10, 1e20, 1e30} {
		for _, s := range []float32{-mag, mag} {
			far = append(far,
				screenTri(s, 5.5, 8.5, 2.5, 8.5, 9.5),
				screenTri(3.5, s, 8.5, 2.5, 12.5, 9.5),
				screenTri(s, s, -s, 6, 8.5, 9.5),
				screenTri(s, 4.5, s, 4.6, 7.5, 4.5), // a needle from far away
				screenTri(-mag, -mag, mag, -mag, 0, mag),
				screenTri(s, s, s+1, s, s, s+1),
			)
		}
	}
	cases["off-screen coordinates from ±1e6 to ±1e30"] = far

	var nonFinite []geom.Triangle
	for _, base := range []geom.Triangle{screenTri(2.25, 2.75, 9.5, 3.25, 4.75, 8.5), screenTri(0.5, 0.5, 15.5, 11.5, 0.5, 11.5)} {
		for k := 0; k < 9; k++ {
			for _, v := range []float32{nan, inf, -inf} {
				t := base
				*coords(&t)[k] = v
				nonFinite = append(nonFinite, t)
			}
		}
	}
	cases["one NaN or ±Inf coordinate"] = nonFinite
	return cases
}

// nearW0 are triangles for the transform w = z (x/w and y/w on screen):
// a vertex with z just above 0 projects to a huge or overflowing
// coordinate, and z = ±0 is culled.
func nearW0() []geom.Triangle {
	var ts []geom.Triangle
	for _, z := range []float32{math.SmallestNonzeroFloat32, 1e-38, 1e-30, 1e-6, ulpUp(0), 0, float32(math.Copysign(0, -1))} {
		for _, p := range []geom.Vec3{{X: 0.5, Y: 0.5, Z: z}, {X: -0.5, Y: 0.25, Z: z}, {X: 0, Y: -1e-30, Z: z}} {
			ts = append(ts, geom.Triangle{
				P: [3]geom.Vec3{{X: 4, Y: 4, Z: 1}, {X: 8, Y: 4.5, Z: 1}, p},
				N: [3]geom.Vec3{geom.V(0, 0, 1), geom.V(0, 1, 0), geom.V(1, 0, 0)},
			})
		}
	}
	return ts
}

// sharedBehindEye is a fan of triangles around one vertex behind the eye
// plane of the transform w = z, and two triangles clear of it: every
// triangle of the fan is culled, the other two are drawn.
func sharedBehindEye() []geom.Triangle {
	hub := geom.Vec3{X: 6, Y: 6, Z: -0.5}
	ring := []geom.Vec3{{X: 2, Y: 2, Z: 1}, {X: 10, Y: 2, Z: 1}, {X: 14, Y: 8, Z: 1}, {X: 8, Y: 11, Z: 2}, {X: 1, Y: 9, Z: 1}}
	tri := func(a, b, c geom.Vec3) geom.Triangle {
		t := geom.Triangle{P: [3]geom.Vec3{a, b, c}}
		for i, p := range t.P {
			t.N[i] = geom.V(p.X, p.Y, 3).Normalize()
		}
		return t
	}
	var ts []geom.Triangle
	for i := range ring {
		ts = append(ts, tri(hub, ring[i], ring[(i+1)%len(ring)]))
	}
	return append(ts, tri(ring[0], ring[1], ring[2]), tri(ring[2], ring[3], ring[4]))
}

// permutations returns t under all six vertex orders (both windings).
func permutations(t geom.Triangle) []geom.Triangle {
	var out []geom.Triangle
	for _, o := range [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {2, 1, 0}, {1, 0, 2}} {
		var p geom.Triangle
		for i, j := range o {
			p.P[i], p.N[i] = t.P[j], t.N[j]
		}
		out = append(out, p)
	}
	return out
}

// Each adversarial triangle, in every vertex order, on its own and as one
// batch (through DrawMesh, too, with shared vertices stored once), must
// match the reference exactly (planes, counters, Put sequence, active-pixel
// flushes). The property seed that caught a pixel-centre box
// filling less than the floor/ceil box for NaN weights rides along.
func TestDrawMatchesReferenceAdversarial(t *testing.T) {
	id := geom.Identity()
	wz := geom.Identity()
	wz[14], wz[15] = 1, 0 // w = z
	setups := func(m *geom.Mat4) []rasterCase {
		return []rasterCase{
			{w: 16, h: 12, capacity: 7, m: m},
			{w: 16, h: 12, capacity: 1000, oneByOne: true, m: m},
			{w: 16, h: 12, capacity: 3, band: [2]int{3, 8}, m: m},
			{w: 1, h: 1, capacity: 1, m: m},
		}
	}
	cases := adversarialCases()
	cases["w just above 0"] = nearW0()
	cases["a shared vertex behind the eye"] = sharedBehindEye()
	for name, tris := range cases {
		m := &id
		if name == "w just above 0" || name == "a shared vertex behind the eye" {
			m = &wz
		}
		var all []geom.Triangle
		for _, tri := range tris {
			all = append(all, permutations(tri)...)
		}
		for _, c := range setups(m) {
			for _, tri := range all {
				if err := compareDraw([]geom.Triangle{tri}, c); err != nil {
					t.Fatalf("%s: %+v, w=%d h=%d band=%v: %v", name, tri.P, c.w, c.h, c.band, err)
				}
			}
			if err := compareDraw(all, c); err != nil {
				t.Fatalf("%s: batch, w=%d h=%d band=%v: %v", name, c.w, c.h, c.band, err)
			}
		}
	}
	if err := compareSeed(1422328323328110583); err != nil {
		t.Fatal(err)
	}
}

// FuzzDrawMatchesReference draws one triangle from raw float32 bits — any
// NaN payload, infinity, denormal or magnitude — on a fuzzed viewport,
// under the identity transform (the bits are screen coordinates) or the
// default camera, and requires the reference's output bit for bit, from
// DrawAll and from DrawMesh.
func FuzzDrawMatchesReference(f *testing.F) {
	bits := func(t geom.Triangle) (b [9]uint32) {
		for k, p := range coords(&t) {
			b[k] = math.Float32bits(*p)
		}
		return b
	}
	for _, tris := range adversarialCases() {
		for _, tri := range tris[:1] {
			b := bits(tri)
			f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], uint8(16), uint8(12), false)
		}
	}
	b := bits(screenTri(0.25, 0.5, 0.75, 0.5, 0.5, 0.75))
	f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], uint8(64), uint8(64), true)
	f.Fuzz(func(t *testing.T, x0, y0, z0, x1, y1, z1, x2, y2, z2 uint32, w, h uint8, camera bool) {
		var tri geom.Triangle
		for k, p := range coords(&tri) {
			*p = math.Float32frombits([]uint32{x0, y0, z0, x1, y1, z1, x2, y2, z2}[k])
		}
		tri.N = [3]geom.Vec3{geom.V(0, 0, 1), geom.V(0, 1, 0), geom.V(1, 0, 0)}
		c := rasterCase{w: 1 + int(w%64), h: 1 + int(h%64), capacity: 5}
		if !camera {
			id := geom.Identity()
			c.m = &id
		}
		if err := compareDraw([]geom.Triangle{tri}, c); err != nil {
			t.Fatalf("%+v on %dx%d: %v", tri.P, c.w, c.h, err)
		}
	})
}

// The corner viewports: 1x1, one-pixel strips, and the bench's 512x512
// frame with banded scissors on a dense scene.
func TestDrawMatchesReferenceViewports(t *testing.T) {
	tris := testScene(t, 40)
	for _, c := range []rasterCase{
		{w: 1, h: 1, capacity: 1},
		{w: 1, h: 64, capacity: 3},
		{w: 64, h: 1, capacity: 5, oneByOne: true},
		{w: 512, h: 512, capacity: 4096},
		{w: 512, h: 512, capacity: 977, band: [2]int{73, 300}},
		{w: 511, h: 257, capacity: 64, band: [2]int{256, 257}, oneByOne: true},
	} {
		if err := compareDraw(tris, c); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
}

// A Raster whose transform or shading changes between DrawAll calls must
// not reuse anything computed under the old settings.
func TestDrawAllAfterSettingsChangeMatchesReference(t *testing.T) {
	tris := testScene(t, 16)
	got, want := NewZBuffer(64, 64), NewZBuffer(64, 64)
	gr, wr := NewRaster(geom.DefaultCamera(), 64, 64), NewRaster(geom.DefaultCamera(), 64, 64)
	for i, cam := range []geom.Camera{geom.DefaultCamera(), {Eye: geom.V(-1, 2, 0.5), Center: geom.V(0.5, 0.5, 0.5), Up: geom.V(0, 1, 0), FovY: 1, Near: 0.1, Far: 10}} {
		gr.M, wr.M = cam.Matrix(64, 64), cam.Matrix(64, 64)
		gr.Light, wr.Light = geom.V(float32(i), 1, 0).Normalize(), geom.V(float32(i), 1, 0).Normalize()
		gr.DrawAll(tris, got)
		drawAllRef(wr, tris, want)
	}
	if !got.Equal(want) || gr.Triangles != wr.Triangles || gr.Pixels != wr.Pixels {
		t.Fatal("render after a settings change differs from the reference")
	}
}

// Nor may DrawMesh reuse a vertex transformed or shaded by an earlier call.
func TestDrawMeshAfterSettingsChangeMatchesReference(t *testing.T) {
	tris := testScene(t, 16)
	mesh := dedup(tris)
	got, want := NewZBuffer(64, 64), NewZBuffer(64, 64)
	gr, wr := NewRaster(geom.DefaultCamera(), 64, 64), NewRaster(geom.DefaultCamera(), 64, 64)
	for i, cam := range []geom.Camera{geom.DefaultCamera(), {Eye: geom.V(-1, 2, 0.5), Center: geom.V(0.5, 0.5, 0.5), Up: geom.V(0, 1, 0), FovY: 1, Near: 0.1, Far: 10}} {
		gr.M, wr.M = cam.Matrix(64, 64), cam.Matrix(64, 64)
		gr.Light, wr.Light = geom.V(float32(i), 1, 0).Normalize(), geom.V(float32(i), 1, 0).Normalize()
		gr.DrawMesh(&mesh, got)
		drawAllRef(wr, tris, want)
	}
	if !got.Equal(want) || gr.Triangles != wr.Triangles || gr.Pixels != wr.Pixels {
		t.Fatal("mesh render after a settings change differs from the reference")
	}
}

// The fingerprints were committed while the triangle rasterizer was still
// the reference code, so they pin the parent's output independently of
// drawRef.
const (
	imageFingerprint = "6490139a6399a64d"
	imageTriangles   = 14780
	imagePixels      = 19652
)

func TestImageFingerprintPinned(t *testing.T) {
	fld := volume.NewPlumeField(2002, 5)
	full := volume.Rasterize(fld, 33, 33, 25, 1)
	for name, drawAll := range map[string]func(*Raster, []geom.Triangle, Target){
		"DrawAll": (*Raster).DrawAll, "drawAllRef": drawAllRef,
	} {
		final := NewZBuffer(256, 256)
		r := NewRaster(geom.DefaultCamera(), 256, 256)
		ap := NewActivePixels(256, 256, 1000, func(px []Pixel) { MergePixels(final, px) })
		for _, b := range volume.Partition(33, 33, 25, 4, 4, 3) {
			tris, _ := mcubes.Extract(full.ExtractBlock(b), 0.15, nil)
			drawAll(r, tris, ap)
			ap.FlushRemaining()
		}
		h := fnv.New64a()
		h.Write(zbufferBits(final))
		got := []any{fmt.Sprintf("%016x", h.Sum64()), r.Triangles, r.Pixels}
		if want := []any{imageFingerprint, int64(imageTriangles), int64(imagePixels)}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fingerprint %v, pinned %v", name, got, want)
		}
	}
}

// ---- z-buffer kernels against their references ----

// planeBits is a z-buffer's planes by exact representation: a merge only
// copies samples, so even NaN payloads must match.
func planeBits(z *ZBuffer) []byte {
	b := make([]byte, 0, 7*len(z.Depth))
	for i, d := range z.Depth {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(d))
		c := z.Color[i]
		b = append(b, c.R, c.G, c.B)
	}
	return b
}

func cloneZ(z *ZBuffer) *ZBuffer {
	return &ZBuffer{W: z.W, H: z.H, Depth: append([]float32(nil), z.Depth...), Color: append([]RGB(nil), z.Color...)}
}

func TestClearMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 512 * 512} {
		got := &ZBuffer{W: n, H: 1, Depth: make([]float32, n), Color: make([]RGB, n)}
		for i := range got.Depth {
			got.Depth[i], got.Color[i] = float32(math.NaN()), RGB{R: 255, B: 255}
		}
		want := cloneZ(got)
		got.Clear()
		clearRef(want)
		if string(planeBits(got)) != string(planeBits(want)) {
			t.Fatalf("%d pixels: Clear differs from the reference", n)
		}
	}
}

// Packed colours order exactly as Less does, over every combination of
// edge channel values (so ties on one or two channels are covered) and
// random colours.
func TestPackOrderMatchesLess(t *testing.T) {
	edge := []uint8{0, 1, 17, 18, 127, 128, 254, 255}
	cs := []RGB{Background}
	for _, r := range edge {
		for _, g := range edge {
			for _, b := range edge {
				cs = append(cs, RGB{r, g, b})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cs = append(cs, RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))})
	}
	for _, a := range cs {
		for _, b := range cs {
			if (a.pack() < b.pack()) != a.Less(b) {
				t.Fatalf("pack(%v) < pack(%v) is %v, Less is %v", a, b, a.pack() < b.pack(), a.Less(b))
			}
		}
	}
}

// depthPalette holds the depths the merge order treats specially, so that
// fuzzed planes often tie exactly — at InfDepth, at ±0, beside NaN — with
// different colours.
var depthPalette = []float32{
	InfDepth, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), 1, math.Nextafter32(InfDepth, float32(math.Inf(1))),
}

// zPixels decodes fuzzed pixels, 8 bytes each: depth bits, a colour, and a
// mode byte that may swap in a palette depth (indexed by the first byte)
// or the background colour.
func zPixels(data []byte) (depth []float32, colors []RGB) {
	for ; len(data) >= 8; data = data[8:] {
		d := math.Float32frombits(binary.LittleEndian.Uint32(data))
		c := RGB{data[4], data[5], data[6]}
		if data[7]&1 == 0 {
			d = depthPalette[int(data[0])%len(depthPalette)]
		}
		if data[7]&2 != 0 {
			c = Background
		}
		depth, colors = append(depth, d), append(colors, c)
	}
	return depth, colors
}

// zPixelBytes encodes pixels for zPixels with raw depth bits.
func zPixelBytes(depth []float32, colors []RGB) []byte {
	var b []byte
	for i, d := range depth {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(d))
		b = append(b, colors[i].R, colors[i].G, colors[i].B, 1)
	}
	return b
}

// compareMerge builds an accumulator of 1+size%64 pixels from the first
// fuzzed pixels (the rest of it cleared), merges the remaining ones in at
// pixel off with MergeRange and with the reference, and compares the planes
// bit for bit. A run covering the whole accumulator also goes through
// MergeFrom.
func compareMerge(data []byte, size, off uint8) error {
	n := 1 + int(size)%64
	depth, colors := zPixels(data)
	acc := &ZBuffer{W: n, H: 1, Depth: make([]float32, n), Color: make([]RGB, n)}
	clearRef(acc)
	k := copy(acc.Depth, depth)
	copy(acc.Color, colors)
	depth, colors = depth[k:], colors[k:]
	o := int(off) % (n + 1)
	if len(depth) > n-o {
		depth, colors = depth[:n-o], colors[:n-o]
	}
	in := zPixelBytes(depth, colors)
	got, want := cloneZ(acc), cloneZ(acc)
	got.MergeRange(o, depth, colors)
	mergeRangeRef(want, o, depth, colors)
	if string(planeBits(got)) != string(planeBits(want)) {
		return fmt.Errorf("MergeRange of %d pixels at %d into %d differs from the reference", len(depth), o, n)
	}
	if string(zPixelBytes(depth, colors)) != string(in) {
		return fmt.Errorf("MergeRange modified its input")
	}
	if o == 0 && len(depth) == n {
		got = cloneZ(acc)
		got.MergeFrom(&ZBuffer{W: n, H: 1, Depth: depth, Color: colors})
		if string(planeBits(got)) != string(planeBits(want)) {
			return fmt.Errorf("MergeFrom of %d pixels differs from the reference", n)
		}
	}
	return nil
}

// Property: random planes (special depths and background colours mixed
// in) merge exactly as the reference merges them. Each case draws up to 128
// pixels, so the run after the accumulator is long enough to tie often —
// -0 against +0 with equal colours among them.
func TestMergeRangeMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, size, off uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 8*rng.Intn(129))
		rng.Read(data)
		if err := compareMerge(data, size, off); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMergeRangeMatchesReference merges fuzzed planes — NaN, ±Inf,
// InfDepth, ±0 and equal depths with different colours — and requires the
// reference's planes bit for bit.
func FuzzMergeRangeMatchesReference(f *testing.F) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	bg := Background
	above, below := RGB{bg.R, bg.G, bg.B + 1}, RGB{bg.R, bg.G, bg.B - 1}
	// A four-pixel accumulator and a four-pixel run over it.
	for _, run := range [][]float32{
		{InfDepth, InfDepth, InfDepth, InfDepth},
		{nan, inf, -inf, InfDepth},
		{0, float32(math.Copysign(0, -1)), 1, 1},
	} {
		acc := []float32{InfDepth, 1, 0, nan}
		b := zPixelBytes(append(acc, run...), []RGB{bg, below, above, bg, above, below, bg, {}})
		f.Add(b, uint8(3), uint8(0))
		f.Add(b, uint8(5), uint8(2))
	}
	// Exact ties, equal colours included: only the sign of zero tells a
	// merge that takes the run's sample from one that keeps the
	// accumulator's.
	negZero := float32(math.Copysign(0, -1))
	ties := []RGB{bg, above, bg, below}
	f.Add(zPixelBytes([]float32{0, negZero, InfDepth, 1, negZero, 0, InfDepth, 1}, append(ties, ties...)), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, size, off uint8) {
		if err := compareMerge(data, size, off); err != nil {
			t.Fatal(err)
		}
	})
}
