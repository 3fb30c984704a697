package render

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"datacutter/internal/geom"
	"datacutter/internal/mcubes"
	"datacutter/internal/volume"
)

func testScene(t *testing.T, n int) []geom.Triangle {
	t.Helper()
	fld := volume.NewPlumeField(31, 4)
	v := volume.Rasterize(fld, n, n, n, 0)
	min, max := v.MinMax()
	tris, _ := mcubes.Extract(v, min+(max-min)*0.5, nil)
	if len(tris) == 0 {
		t.Fatal("test scene empty")
	}
	return tris
}

func render(tris []geom.Triangle, w, h int) *ZBuffer {
	z := NewZBuffer(w, h)
	r := NewRaster(geom.DefaultCamera(), w, h)
	r.DrawAll(tris, z)
	return z
}

func TestRenderProducesPixels(t *testing.T) {
	z := render(testScene(t, 24), 96, 96)
	if z.ActiveCount() == 0 {
		t.Fatal("no active pixels")
	}
	if z.ActiveCount() >= z.W*z.H {
		t.Fatal("surface fills entire frame; camera framing wrong")
	}
}

func TestZBufferPutRespectsDepthOrder(t *testing.T) {
	z := NewZBuffer(4, 4)
	z.Put(1, 1, 5, RGB{10, 0, 0})
	z.Put(1, 1, 3, RGB{0, 10, 0}) // closer wins
	z.Put(1, 1, 4, RGB{0, 0, 10}) // farther loses
	if z.Color[1*4+1] != (RGB{0, 10, 0}) {
		t.Fatalf("pixel = %+v", z.Color[1*4+1])
	}
	// Exact tie: smaller color wins regardless of order.
	z.Put(2, 2, 1, RGB{9, 9, 9})
	z.Put(2, 2, 1, RGB{1, 1, 1})
	if z.Color[2*4+2] != (RGB{1, 1, 1}) {
		t.Fatal("tie-break failed")
	}
	z.Put(3, 3, 1, RGB{1, 1, 1})
	z.Put(3, 3, 1, RGB{9, 9, 9})
	if z.Color[3*4+3] != (RGB{1, 1, 1}) {
		t.Fatal("tie-break order dependent")
	}
}

func TestZBufferPutIgnoresOutOfBounds(t *testing.T) {
	z := NewZBuffer(2, 2)
	z.Put(-1, 0, 1, RGB{1, 1, 1})
	z.Put(0, -1, 1, RGB{1, 1, 1})
	z.Put(2, 0, 1, RGB{1, 1, 1})
	z.Put(0, 2, 1, RGB{1, 1, 1})
	if z.ActiveCount() != 0 {
		t.Fatal("out-of-bounds writes landed")
	}
}

// Property: merging z-buffers is commutative and order independent —
// merging partial buffers in any order or grouping yields the full render.
func TestMergeCommutesProperty(t *testing.T) {
	tris := testScene(t, 16)
	const w, h = 48, 48
	full := render(tris, w, h)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(5)
		bufs := make([]*ZBuffer, parts)
		for i := range bufs {
			bufs[i] = NewZBuffer(w, h)
		}
		r := NewRaster(geom.DefaultCamera(), w, h)
		for _, tr := range tris {
			r.DrawAll([]geom.Triangle{tr}, bufs[rng.Intn(parts)])
		}
		acc := NewZBuffer(w, h)
		for _, i := range rng.Perm(parts) {
			acc.MergeFrom(bufs[i])
		}
		return acc.Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	full := render(testScene(t, 16), 40, 40)
	acc := NewZBuffer(40, 40)
	acc.MergeFrom(full)
	acc.MergeFrom(full)
	if !acc.Equal(full) {
		t.Fatal("double merge changed the image")
	}
}

func TestMergeRangeEqualsMergeFrom(t *testing.T) {
	full := render(testScene(t, 16), 40, 40)
	acc := NewZBuffer(40, 40)
	const chunk = 333
	for off := 0; off < len(full.Depth); off += chunk {
		end := off + chunk
		if end > len(full.Depth) {
			end = len(full.Depth)
		}
		acc.MergeRange(off, full.Depth[off:end], full.Color[off:end])
	}
	if !acc.Equal(full) {
		t.Fatal("chunked merge differs from whole merge")
	}
}

// The headline equivalence: Active Pixel rendering produces the identical
// image to z-buffer rendering, for any WPA capacity and triangle partition.
func TestActivePixelEqualsZBuffer(t *testing.T) {
	tris := testScene(t, 20)
	const w, h = 64, 64
	want := render(tris, w, h)

	for _, capacity := range []int{1, 7, 256, 100000} {
		merged := NewZBuffer(w, h)
		ap := NewActivePixels(w, h, capacity, func(px []Pixel) { MergePixels(merged, px) })
		r := NewRaster(geom.DefaultCamera(), w, h)
		r.DrawAll(tris, ap)
		ap.FlushRemaining()
		if !merged.Equal(want) {
			t.Fatalf("cap=%d: active pixel image differs from z-buffer image", capacity)
		}
	}
}

func TestActivePixelPartitionedCopiesEqualSingle(t *testing.T) {
	tris := testScene(t, 20)
	const w, h = 64, 64
	want := render(tris, w, h)

	rng := rand.New(rand.NewSource(4))
	merged := NewZBuffer(w, h)
	const copies = 3
	aps := make([]*ActivePixels, copies)
	rs := make([]*Raster, copies)
	for i := range aps {
		aps[i] = NewActivePixels(w, h, 97, func(px []Pixel) { MergePixels(merged, px) })
		rs[i] = NewRaster(geom.DefaultCamera(), w, h)
	}
	for _, tr := range tris {
		i := rng.Intn(copies)
		rs[i].DrawAll([]geom.Triangle{tr}, aps[i])
	}
	for _, ap := range aps {
		ap.FlushRemaining()
	}
	if !merged.Equal(want) {
		t.Fatal("partitioned active-pixel render differs")
	}
}

func TestActivePixelFlushesWhenFull(t *testing.T) {
	flushed := 0
	ap := NewActivePixels(16, 16, 4, func(px []Pixel) { flushed += len(px) })
	for i := 0; i < 10; i++ {
		ap.Put(i%16, i/16, 1, RGB{1, 2, 3})
	}
	if ap.Flushes != 2 {
		t.Fatalf("flushes = %d, want 2", ap.Flushes)
	}
	ap.FlushRemaining()
	if flushed != 10 {
		t.Fatalf("flushed %d pixels, want 10", flushed)
	}
	ap.FlushRemaining() // no-op on empty
	if ap.Flushes != 3 {
		t.Fatalf("empty flush counted: %d", ap.Flushes)
	}
}

func TestActivePixelDedupesColumn(t *testing.T) {
	var got []Pixel
	ap := NewActivePixels(8, 8, 100, func(px []Pixel) { got = append(got, px...) })
	ap.Put(3, 3, 5, RGB{9, 9, 9})
	ap.Put(3, 3, 2, RGB{1, 1, 1}) // same pixel, closer: in-place update
	ap.FlushRemaining()
	if len(got) != 1 || got[0].Depth != 2 || got[0].C != (RGB{1, 1, 1}) {
		t.Fatalf("WPA content: %+v", got)
	}
}

func TestActivePixelSparserThanZBufferTransport(t *testing.T) {
	// The AP algorithm's raison d'être (paper Table 1): transported volume
	// is proportional to active pixels, far below the full frame.
	tris := testScene(t, 20)
	const w, h = 128, 128
	sent := 0
	merged := NewZBuffer(w, h)
	ap := NewActivePixels(w, h, 512, func(px []Pixel) {
		sent += len(px) * PixelBytes
		MergePixels(merged, px)
	})
	r := NewRaster(geom.DefaultCamera(), w, h)
	r.DrawAll(tris, ap)
	ap.FlushRemaining()
	zbBytes := w * h * ZPixelBytes
	if sent >= zbBytes {
		t.Fatalf("AP transport %d B not below ZB transport %d B", sent, zbBytes)
	}
}

func TestBehindCameraTrianglesCulled(t *testing.T) {
	cam := geom.DefaultCamera()
	behindCenter := cam.Eye.Add(cam.ViewDir().Scale(-2))
	tri := geom.Triangle{P: [3]geom.Vec3{
		behindCenter,
		behindCenter.Add(geom.V(0.1, 0, 0)),
		behindCenter.Add(geom.V(0, 0.1, 0)),
	}}
	z := NewZBuffer(32, 32)
	r := NewRaster(cam, 32, 32)
	r.DrawAll([]geom.Triangle{tri}, z)
	if z.ActiveCount() != 0 {
		t.Fatal("behind-camera triangle rasterized")
	}
}

func TestOffscreenTriangleClipped(t *testing.T) {
	// A triangle far to the side of the frustum rasterizes nothing but
	// must not crash or write out of bounds.
	tri := geom.Triangle{P: [3]geom.Vec3{
		geom.V(50, 0, 0), geom.V(51, 0, 0), geom.V(50, 1, 0),
	}}
	z := NewZBuffer(32, 32)
	r := NewRaster(geom.DefaultCamera(), 32, 32)
	r.DrawAll([]geom.Triangle{tri}, z)
	if z.ActiveCount() != 0 {
		t.Fatal("offscreen triangle rasterized")
	}
}

func TestImageConversion(t *testing.T) {
	z := NewZBuffer(8, 8)
	z.Put(2, 5, 1, RGB{200, 100, 50})
	img := z.Image()
	c := img.RGBAAt(2, 5)
	if c.R != 200 || c.G != 100 || c.B != 50 || c.A != 255 {
		t.Fatalf("image pixel = %+v", c)
	}
	bg := img.RGBAAt(0, 0)
	if bg.R != Background.R {
		t.Fatalf("background = %+v", bg)
	}
}

func TestShadingVariesWithNormal(t *testing.T) {
	r := NewRaster(geom.DefaultCamera(), 8, 8)
	lit := r.shadeVertex(r.Light)
	dark := r.shadeVertex(geom.V(r.Light.Y, -r.Light.X, 0).Normalize()) // orthogonal
	if lit == dark {
		t.Fatal("shading insensitive to normals")
	}
	if dark.R == 0 {
		t.Fatal("ambient term missing")
	}
}

func TestRasterCountsWork(t *testing.T) {
	tris := testScene(t, 16)
	z := NewZBuffer(64, 64)
	r := NewRaster(geom.DefaultCamera(), 64, 64)
	r.DrawAll(tris, z)
	if r.Triangles == 0 || r.Pixels == 0 {
		t.Fatalf("work counters empty: %d tris %d px", r.Triangles, r.Pixels)
	}
	if r.Triangles > int64(len(tris)) {
		t.Fatalf("triangle counter too high: %d > %d", r.Triangles, len(tris))
	}
}

// Property: Band/BandOf are exact inverses — every scanline belongs to
// exactly the band whose interval contains it, for awkward heights too.
func TestBandOfInvertsBand(t *testing.T) {
	for _, h := range []int{1, 7, 10, 512, 1000} {
		for _, n := range []int{1, 2, 3, 7, 16} {
			if n > h {
				continue
			}
			for y := 0; y < h; y++ {
				i := BandOf(h, n, y)
				y0, y1 := Band(h, n, i)
				if y < y0 || y >= y1 {
					t.Fatalf("h=%d n=%d y=%d -> band %d [%d,%d)", h, n, y, i, y0, y1)
				}
			}
			// Bands tile [0,h) exactly.
			prev := 0
			for i := 0; i < n; i++ {
				y0, y1 := Band(h, n, i)
				if y0 != prev || y1 <= y0 && h >= n {
					t.Fatalf("h=%d n=%d band %d = [%d,%d), prev end %d", h, n, i, y0, y1, prev)
				}
				prev = y1
			}
			if prev != h {
				t.Fatalf("h=%d n=%d bands end at %d", h, n, prev)
			}
		}
	}
}

func TestScissorRestrictsOutput(t *testing.T) {
	tris := testScene(t, 16)
	full := render(tris, 64, 64)
	z := NewZBuffer(64, 64)
	r := NewRaster(geom.DefaultCamera(), 64, 64)
	r.SetScissor(16, 32)
	r.DrawAll(tris, z)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			i := y*64 + x
			inBand := y >= 16 && y < 32
			if inBand {
				if z.Depth[i] != full.Depth[i] {
					t.Fatalf("pixel (%d,%d) differs inside scissor", x, y)
				}
			} else if z.Depth[i] != InfDepth {
				t.Fatalf("pixel (%d,%d) written outside scissor", x, y)
			}
		}
	}
}

// Banded rasterization with scissoring reassembles the exact full image.
func TestBandedRasterizationExact(t *testing.T) {
	tris := testScene(t, 20)
	const w, h, bands = 64, 60, 7 // 60 % 7 != 0: uneven bands
	full := render(tris, w, h)
	acc := NewZBuffer(w, h)
	for b := 0; b < bands; b++ {
		z := NewZBuffer(w, h)
		r := NewRaster(geom.DefaultCamera(), w, h)
		y0, y1 := Band(h, bands, b)
		r.SetScissor(y0, y1)
		r.DrawAll(tris, z)
		acc.MergeFrom(z)
	}
	if !acc.Equal(full) {
		t.Fatal("banded render differs from full render")
	}
}

// BenchmarkDrawAll rasterizes the bench's dense frame (the 129x129x97 plume
// grid at iso 0.15, extracted chunk by chunk) into a 512x512 active-pixel
// target, flushing after every chunk as the Ra filter does.
// Every triangle of a fan around a vertex behind the eye is culled, and
// only those: the vertex is transformed once for all of them.
func TestDrawMeshCullsSharedVertexBehindEye(t *testing.T) {
	tris := sharedBehindEye()
	mesh := dedup(tris)
	if len(mesh.P) != 6 {
		t.Fatalf("fan mesh has %d vertices, want 6", len(mesh.P))
	}
	wz := geom.Identity()
	wz[14], wz[15] = 1, 0 // w = z
	r := NewRaster(geom.DefaultCamera(), 16, 12)
	r.M = wz
	z := NewZBuffer(16, 12)
	r.DrawMesh(&mesh, z)
	if r.Triangles != 2 || r.Pixels == 0 {
		t.Fatalf("drew %d triangles (%d pixels), want the 2 clear of the hidden vertex", r.Triangles, r.Pixels)
	}
}

// Rasters own their per-vertex scratch: two drawing different meshes at
// once (run it under -race) each render their serial image.
func TestDrawMeshConcurrentRasters(t *testing.T) {
	const size = 96
	full := volume.Rasterize(volume.NewPlumeField(2002, 5), 33, 33, 25, 1)
	blocks := volume.Partition(33, 33, 25, 4, 4, 3)
	scenes := make([][]geom.Mesh, 2)
	serial := make([]*ZBuffer, 2)
	for i := range scenes {
		for j := i; j < len(blocks); j += 2 {
			var m geom.Mesh
			mcubes.ExtractMesh(full.ExtractBlock(blocks[j]), 0.15, &m)
			scenes[i] = append(scenes[i], m)
		}
		serial[i] = NewZBuffer(size, size)
		r := NewRaster(geom.DefaultCamera(), size, size)
		for j := range scenes[i] {
			r.DrawMesh(&scenes[i][j], serial[i])
		}
	}
	if serial[0].Equal(serial[1]) {
		t.Fatal("the two scenes render alike; the test cannot tell them apart")
	}
	var wg sync.WaitGroup
	for i := range scenes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRaster(geom.DefaultCamera(), size, size)
			for round := 0; round < 4; round++ {
				z := NewZBuffer(size, size)
				for j := range scenes[i] {
					r.DrawMesh(&scenes[i][j], z)
				}
				if !z.Equal(serial[i]) {
					t.Errorf("scene %d, round %d: concurrent image differs from the serial one", i, round)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkDrawAll(b *testing.B) {
	full := volume.Rasterize(volume.NewPlumeField(2002, 5), 129, 129, 97, 0)
	var scene [][]geom.Triangle
	for _, blk := range volume.Partition(129, 129, 97, 8, 8, 6) {
		tris, _ := mcubes.Extract(full.ExtractBlock(blk), 0.15, nil)
		scene = append(scene, tris)
	}
	const size = 512
	r := NewRaster(geom.DefaultCamera(), size, size)
	merged := 0
	// The WPA capacity of isoviz.WPABufferBytes (64 KiB) buffers.
	ap := NewActivePixels(size, size, (64<<10)/PixelBytes, func(px []Pixel) { merged += len(px) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tris := range scene {
			r.DrawAll(tris, ap)
			ap.FlushRemaining()
		}
	}
}

// BenchmarkDrawMesh is BenchmarkDrawAll on the indexed meshes the E filter
// ships: one per chunk.
func BenchmarkDrawMesh(b *testing.B) {
	full := volume.Rasterize(volume.NewPlumeField(2002, 5), 129, 129, 97, 0)
	var scene []geom.Mesh
	for _, blk := range volume.Partition(129, 129, 97, 8, 8, 6) {
		var m geom.Mesh
		mcubes.ExtractMesh(full.ExtractBlock(blk), 0.15, &m)
		scene = append(scene, m)
	}
	const size = 512
	r := NewRaster(geom.DefaultCamera(), size, size)
	merged := 0
	ap := NewActivePixels(size, size, (64<<10)/PixelBytes, func(px []Pixel) { merged += len(px) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range scene {
			r.DrawMesh(&scene[j], ap)
			ap.FlushRemaining()
		}
	}
}

// BenchmarkZBufferClear clears a 512x512 z-buffer, as each z-buffer Ra
// copy does once per frame.
func BenchmarkZBufferClear(b *testing.B) {
	z := NewZBuffer(512, 512)
	b.SetBytes(int64(len(z.Depth) * ZPixelBytes))
	for i := 0; i < b.N; i++ {
		z.Clear()
	}
}

// BenchmarkMergeRange merges one Ra copy's 512x512 z-buffer of the bench's
// sparse frame (iso 0.9, the chunks dealt alternately to two copies) into
// the other's, as the merge filter does. After the first merge every pixel
// is a compare that keeps the accumulator's sample; almost all of them are
// exact ties at InfDepth.
func BenchmarkMergeRange(b *testing.B) {
	full := volume.Rasterize(volume.NewPlumeField(2002, 5), 129, 129, 97, 0)
	const size = 512
	zs := [2]*ZBuffer{NewZBuffer(size, size), NewZBuffer(size, size)}
	r := NewRaster(geom.DefaultCamera(), size, size)
	for i, blk := range volume.Partition(129, 129, 97, 8, 8, 6) {
		tris, _ := mcubes.Extract(full.ExtractBlock(blk), 0.9, nil)
		r.DrawAll(tris, zs[i%2])
	}
	acc, in := zs[0], zs[1]
	b.SetBytes(int64(len(in.Depth) * ZPixelBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.MergeRange(0, in.Depth, in.Color)
	}
}
