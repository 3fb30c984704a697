package render

// The reference oracle: Raster.Draw and its helpers exactly as they stood
// before the per-triangle trims, kept verbatim (renamed only) so the
// properties below check the production rasterizer against the parent's
// bits — identical planes, counters, Put sequences and active-pixel flushes.

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
// and whether triangles go one Draw at a time or through DrawAll.
type rasterCase struct {
	w, h     int
	band     [2]int // scissor [y0,y1) when band[1] > 0
	oneByOne bool
	capacity int // active-pixel WPA capacity
}

func (c rasterCase) raster() *Raster {
	r := NewRaster(geom.DefaultCamera(), c.w, c.h)
	if c.band[1] > 0 {
		r.SetScissor(c.band[0], c.band[1])
	}
	return r
}

// compareDraw rasterizes tris with the production kernel and the reference
// into each target kind and reports the first difference.
func compareDraw(tris []geom.Triangle, c rasterCase) error {
	type run struct {
		r     *Raster
		log   putLog
		zb    *ZBuffer
		ap    *ActivePixels
		flush [][]Pixel
	}
	do := func(draw func(*Raster, geom.Triangle, Target), drawAll func(*Raster, []geom.Triangle, Target)) *run {
		out := &run{r: c.raster(), zb: NewZBuffer(c.w, c.h)}
		out.ap = NewActivePixels(c.w, c.h, c.capacity, func(px []Pixel) {
			out.flush = append(out.flush, append([]Pixel(nil), px...))
		})
		for _, t := range []Target{&out.log, out.zb, out.ap} {
			if c.oneByOne {
				for _, tr := range tris {
					draw(out.r, tr, t)
				}
			} else {
				drawAll(out.r, tris, t)
			}
		}
		out.ap.FlushRemaining()
		return out
	}
	got := do((*Raster).Draw, (*Raster).DrawAll)
	want := do(drawRef, drawAllRef)
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
// targets and both entry points, Draw/DrawAll match the reference exactly.
func TestDrawMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tris := randomTriangles(rng)
		c := rasterCase{w: 1 + rng.Intn(96), h: 1 + rng.Intn(96), oneByOne: rng.Intn(3) == 0, capacity: 1 + rng.Intn(300)}
		if rng.Intn(2) == 0 {
			y0 := rng.Intn(c.h)
			c.band = [2]int{y0, y0 + 1 + rng.Intn(c.h-y0)}
		}
		if err := compareDraw(tris, c); err != nil {
			t.Logf("seed %d %+v: %v", seed, c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
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

// The fingerprints were committed while Draw was still the reference code,
// so they pin the parent's output independently of drawRef.
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
