package mcubes

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"datacutter/internal/geom"
	"datacutter/internal/volume"
)

// sphereVolume samples f(p) = r - |p - c| so the isosurface at 0 is a
// sphere of radius r (positive inside).
func sphereVolume(n int, r float32) *volume.Volume {
	v := volume.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				fx, fy, fz := v.PosOf(x, y, z)
				dx, dy, dz := fx-0.5, fy-0.5, fz-0.5
				d := float32(math.Sqrt(float64(dx*dx + dy*dy + dz*dz)))
				v.Set(x, y, z, r-d)
			}
		}
	}
	return v
}

func TestSphereVerticesLieOnSphere(t *testing.T) {
	const n, r = 33, 0.3
	v := sphereVolume(n, r)
	tris, st := Extract(v, 0, nil)
	if st.Triangles == 0 || len(tris) != st.Triangles {
		t.Fatalf("triangles: %d (stats %d)", len(tris), st.Triangles)
	}
	h := 1.0 / float32(n-1) // grid spacing bounds the interpolation error
	for _, tr := range tris {
		for _, p := range tr.P {
			dx, dy, dz := p.X-0.5, p.Y-0.5, p.Z-0.5
			d := float32(math.Sqrt(float64(dx*dx + dy*dy + dz*dz)))
			if math.Abs(float64(d-r)) > float64(h) {
				t.Fatalf("vertex %v at distance %v, want %v +- %v", p, d, r, h)
			}
		}
	}
}

func TestSphereNormalsPointOutward(t *testing.T) {
	v := sphereVolume(25, 0.3)
	tris, _ := Extract(v, 0, nil)
	bad := 0
	for _, tr := range tris {
		for i, p := range tr.P {
			radial := geom.V(p.X-0.5, p.Y-0.5, p.Z-0.5).Normalize()
			if radial.Dot(tr.N[i]) < 0.8 {
				bad++
			}
		}
	}
	if bad > len(tris)/100 {
		t.Fatalf("%d of %d vertex normals deviate from radial", bad, len(tris)*3)
	}
}

type edgeKey struct{ a, b geom.Vec3 }

func canonEdge(a, b geom.Vec3) edgeKey {
	if a.X > b.X || (a.X == b.X && (a.Y > b.Y || (a.Y == b.Y && a.Z > b.Z))) {
		a, b = b, a
	}
	return edgeKey{a, b}
}

func edgeCounts(tris []geom.Triangle) map[edgeKey]int {
	edges := make(map[edgeKey]int)
	for _, tr := range tris {
		edges[canonEdge(tr.P[0], tr.P[1])]++
		edges[canonEdge(tr.P[1], tr.P[2])]++
		edges[canonEdge(tr.P[2], tr.P[0])]++
	}
	return edges
}

func TestSphereSurfaceIsWatertight(t *testing.T) {
	v := sphereVolume(21, 0.28)
	tris, _ := Extract(v, 0, nil)
	for e, n := range edgeCounts(tris) {
		if n != 2 {
			t.Fatalf("edge %v shared by %d triangles, want 2", e, n)
		}
	}
}

func TestSphereEulerCharacteristic(t *testing.T) {
	v := sphereVolume(21, 0.28)
	tris, _ := Extract(v, 0, nil)
	verts := make(map[geom.Vec3]struct{})
	for _, tr := range tris {
		for _, p := range tr.P {
			verts[p] = struct{}{}
		}
	}
	edges := edgeCounts(tris)
	chi := len(verts) - len(edges) + len(tris)
	if chi != 2 {
		t.Fatalf("Euler characteristic = %d, want 2 (sphere)", chi)
	}
}

// Property: extraction from random smooth fields is watertight away from
// the volume boundary — boundary-touching surfaces are open there, so only
// edges strictly inside must pair up.
func TestWatertightInteriorProperty(t *testing.T) {
	f := func(seed int64) bool {
		fld := volume.NewPlumeField(seed, 3)
		v := volume.Rasterize(fld, 17, 17, 17, 0)
		min, max := v.MinMax()
		iso := min + (max-min)*0.55
		tris, _ := Extract(v, iso, nil)
		const eps = 1e-6
		onBoundary := func(p geom.Vec3) bool {
			return p.X < eps || p.X > 1-eps || p.Y < eps || p.Y > 1-eps || p.Z < eps || p.Z > 1-eps
		}
		for e, n := range edgeCounts(tris) {
			if n == 2 {
				continue
			}
			if !(onBoundary(e.a) && onBoundary(e.b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Block-parallel extraction must produce the same triangle positions as
// whole-volume extraction (normals may differ at seams where block-local
// gradients are one-sided).
func TestBlockExtractionSeamless(t *testing.T) {
	fld := volume.NewPlumeField(11, 4)
	full := volume.Rasterize(fld, 25, 21, 19, 1)
	min, max := full.MinMax()
	iso := min + (max-min)*0.5

	wholeTris, wst := Extract(full, iso, nil)

	var blockTris []geom.Triangle
	var bst Stats
	for _, b := range volume.Partition(25, 21, 19, 3, 2, 2) {
		sub := full.ExtractBlock(b)
		var s Stats
		blockTris, s = Extract(sub, iso, blockTris)
		bst.Cells += s.Cells
		bst.ActiveCells += s.ActiveCells
		bst.Triangles += s.Triangles
	}
	if bst.Cells != wst.Cells {
		t.Fatalf("cells: blocks %d vs whole %d", bst.Cells, wst.Cells)
	}
	if len(blockTris) != len(wholeTris) {
		t.Fatalf("triangle count: blocks %d vs whole %d", len(blockTris), len(wholeTris))
	}
	type triKey [9]float32
	key := func(tr geom.Triangle) triKey {
		return triKey{tr.P[0].X, tr.P[0].Y, tr.P[0].Z, tr.P[1].X, tr.P[1].Y, tr.P[1].Z, tr.P[2].X, tr.P[2].Y, tr.P[2].Z}
	}
	seen := make(map[triKey]int)
	for _, tr := range wholeTris {
		seen[key(tr)]++
	}
	for _, tr := range blockTris {
		seen[key(tr)]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("triangle multiset mismatch at %v (%+d)", k, n)
		}
	}
}

func TestUniformVolumeYieldsNothing(t *testing.T) {
	v := volume.New(8, 8, 8)
	for i := range v.Data {
		v.Data[i] = 1
	}
	tris, st := Extract(v, 0.5, nil)
	if len(tris) != 0 || st.ActiveCells != 0 {
		t.Fatalf("uniform volume produced %d triangles", len(tris))
	}
	if st.Cells != 7*7*7 {
		t.Fatalf("cells = %d", st.Cells)
	}
}

func TestDegenerateVolumeDims(t *testing.T) {
	v := volume.New(1, 8, 8)
	tris, st := Extract(v, 0.5, nil)
	if len(tris) != 0 || st.Cells != 0 {
		t.Fatal("flat volume should produce nothing")
	}
}

func TestIsoOutsideRangeYieldsNothing(t *testing.T) {
	fld := volume.NewPlumeField(5, 3)
	v := volume.Rasterize(fld, 12, 12, 12, 0)
	_, max := v.MinMax()
	tris, _ := Extract(v, max+1, nil)
	if len(tris) != 0 {
		t.Fatalf("iso above max produced %d triangles", len(tris))
	}
}

func TestStatsConsistency(t *testing.T) {
	fld := volume.NewPlumeField(13, 4)
	v := volume.Rasterize(fld, 20, 20, 20, 0)
	min, max := v.MinMax()
	var m geom.Mesh
	st := ExtractMesh(v, (min+max)/2, &m)
	if count := m.Triangles(); st.Triangles != count {
		t.Fatalf("stats %d vs emitted %d", st.Triangles, count)
	}
	if st.ActiveCells > st.Cells || st.ActiveCells == 0 {
		t.Fatalf("active=%d cells=%d", st.ActiveCells, st.Cells)
	}
	if st.Triangles < st.ActiveCells {
		t.Fatalf("active cells must emit at least one triangle each: tris=%d active=%d", st.Triangles, st.ActiveCells)
	}
}

func TestTriangleAreasReasonable(t *testing.T) {
	const n = 25
	v := sphereVolume(n, 0.3)
	tris, _ := Extract(v, 0, nil)
	cell := float32(1.0 / float32(n-1))
	maxArea := cell * cell * 1.5 // a triangle cannot exceed ~a cell face
	total := float32(0)
	for _, tr := range tris {
		a := tr.Area()
		if a > maxArea {
			t.Fatalf("oversized triangle area %v (cell %v)", a, cell)
		}
		total += a
	}
	// Total area should approximate the sphere's 4*pi*r^2.
	want := float32(4 * math.Pi * 0.3 * 0.3)
	if total < want*0.9 || total > want*1.2 {
		t.Fatalf("total area %v, want ~%v", total, want)
	}
}

func TestDeterministicExtraction(t *testing.T) {
	fld := volume.NewPlumeField(21, 4)
	v := volume.Rasterize(fld, 15, 15, 15, 3)
	min, max := v.MinMax()
	iso := (min + max) / 2
	a, _ := Extract(v, iso, nil)
	b, _ := Extract(v, iso, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
}

// benchChunks is the bench's dense input without its dataset files: the
// 129x129x97 plume grid cut into its 8x8x6 chunks.
func benchChunks() []*volume.Volume {
	full := volume.Rasterize(volume.NewPlumeField(2002, 5), 129, 129, 97, 0)
	var chunks []*volume.Volume
	for _, b := range volume.Partition(129, 129, 97, 8, 8, 6) {
		chunks = append(chunks, full.ExtractBlock(b))
	}
	return chunks
}

// BenchmarkExtractChunks extracts every chunk of the bench frame the way
// the bench replay does (Extract, reusing one output slice) and the way the
// E filter does (ExtractMesh, reusing one mesh); the two iso-values are the
// dense and sparse workloads'. The scan case walks every chunk at an
// iso-value above the field, which only classifies samples: what
// cmd/calibrate times as CellSeconds.
func BenchmarkExtractChunks(b *testing.B) {
	chunks := benchChunks()
	for _, iso := range []float32{0.15, 0.9} {
		b.Run(fmt.Sprintf("iso=%v", iso), func(b *testing.B) {
			b.ReportAllocs()
			var tris []geom.Triangle
			for i := 0; i < b.N; i++ {
				for _, v := range chunks {
					tris, _ = Extract(v, iso, tris[:0])
				}
			}
		})
		b.Run(fmt.Sprintf("mesh/iso=%v", iso), func(b *testing.B) {
			b.ReportAllocs()
			var m geom.Mesh
			for i := 0; i < b.N; i++ {
				for _, v := range chunks {
					m.Reset()
					ExtractMesh(v, iso, &m)
				}
			}
		})
	}
	b.Run("scan", func(b *testing.B) {
		var top float32
		for _, v := range chunks {
			_, hi := v.MinMax()
			top = max(top, hi)
		}
		var m geom.Mesh
		for i := 0; i < b.N; i++ {
			for _, v := range chunks {
				ExtractMesh(v, top+1, &m)
			}
		}
	})
}

// meshLayout hashes ExtractMesh's output on every chunk at iso: the bits
// of each chunk's positions, normals and indices, in order. E's batches,
// their codec bytes and the dist engine's traffic carry this layout, which
// the expanded triangles do not pin.
func meshLayout(chunks []*volume.Volume, iso float32) string {
	h := fnv.New64a()
	var m geom.Mesh
	var buf []byte
	for _, v := range chunks {
		m.Reset()
		ExtractMesh(v, iso, &m)
		buf = buf[:0]
		for _, vs := range [2][]geom.Vec3{m.P, m.N} {
			for _, p := range vs {
				buf = binary.LittleEndian.AppendUint32(buf, f32bits(p.X))
				buf = binary.LittleEndian.AppendUint32(buf, f32bits(p.Y))
				buf = binary.LittleEndian.AppendUint32(buf, f32bits(p.Z))
			}
		}
		for _, i := range m.Idx {
			buf = binary.LittleEndian.AppendUint32(buf, i)
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// The layouts were recorded with the walk that looked up every
// triangle's edges in turn, so they pin its vertex order independently of
// the current walk.
var meshLayouts = map[float32]string{0.15: "b183a4964a6b3d0b", 0.9: "97ac576be87895e4"}

func TestExtractMeshLayoutPinned(t *testing.T) {
	chunks := benchChunks()
	for iso, want := range meshLayouts {
		if got := meshLayout(chunks, iso); got != want {
			t.Errorf("iso %v: layout %s, pinned %s", iso, got, want)
		}
	}
}

// On an ordinary block every edge is cacheable, so ExtractMesh stores each
// crossing once: no two vertices are equal in position and normal, and
// the bench's dense chunks share each vertex among about two triangles.
func TestExtractMeshStoresEachVertexOnce(t *testing.T) {
	var verts, tris int
	for i, v := range benchChunks() {
		if i%7 != 0 {
			continue
		}
		var m geom.Mesh
		ExtractMesh(v, 0.15, &m)
		seen := map[[2]geom.Vec3]bool{}
		for j := range m.P {
			k := [2]geom.Vec3{m.P[j], m.N[j]}
			if seen[k] {
				t.Fatalf("chunk %d: vertex %d stored twice", i, j)
			}
			seen[k] = true
		}
		verts += len(m.P)
		tris += m.Triangles()
	}
	if tris == 0 || float64(tris) < 1.5*float64(verts) {
		t.Fatalf("%d vertices for %d triangles", verts, tris)
	}
}
