package mcubes

// The reference oracle: the extraction kernel exactly as it stood before
// the slab-wise rewrite, kept verbatim (renamed only) so every property and
// fuzz test below checks the production ExtractMesh (expanded by index) and
// Extract against the parent's bits — the same triangles, in
// the same order, with the same Stats.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"datacutter/internal/geom"
	"datacutter/internal/volume"
)

type refCorner struct {
	p  geom.Vec3
	g  geom.Vec3
	v  float32
	id int64
}

var refTets = [6][4]int{
	{0, 1, 3, 7}, // +x +y +z
	{0, 1, 5, 7}, // +x +z +y
	{0, 2, 3, 7}, // +y +x +z
	{0, 2, 6, 7}, // +y +z +x
	{0, 4, 5, 7}, // +z +x +y
	{0, 4, 6, 7}, // +z +y +x
}

var refCornerOffset = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

func walkRef(v *volume.Volume, iso float32, emit func(geom.Triangle)) Stats {
	var st Stats
	if v.NX < 2 || v.NY < 2 || v.NZ < 2 {
		return st
	}
	gx := int64(v.Block.GX)
	gxy := gx * int64(v.Block.GY)
	if gx == 0 {
		gx = int64(v.NX)
		gxy = gx * int64(v.NY)
	}

	var cs [8]refCorner
	for z := 0; z < v.NZ-1; z++ {
		for y := 0; y < v.NY-1; y++ {
			for x := 0; x < v.NX-1; x++ {
				st.Cells++
				// Classify quickly on the 8 corner samples.
				inside := 0
				for c := 0; c < 8; c++ {
					o := refCornerOffset[c]
					if v.At(x+o[0], y+o[1], z+o[2]) > iso {
						inside++
					}
				}
				if inside == 0 || inside == 8 {
					continue
				}
				st.ActiveCells++
				for c := 0; c < 8; c++ {
					o := refCornerOffset[c]
					cx, cy, cz := x+o[0], y+o[1], z+o[2]
					px, py, pz := v.PosOf(cx, cy, cz)
					cs[c] = refCorner{
						p:  geom.V(px, py, pz),
						g:  gradientRef(v, cx, cy, cz),
						v:  v.At(cx, cy, cz),
						id: int64(v.Block.X0+cx) + int64(v.Block.Y0+cy)*gx + int64(v.Block.Z0+cz)*gxy,
					}
				}
				for _, t := range refTets {
					st.Triangles += tetraRef(cs[t[0]], cs[t[1]], cs[t[2]], cs[t[3]], iso, emit)
				}
			}
		}
	}
	return st
}

func gradientRef(v *volume.Volume, x, y, z int) geom.Vec3 {
	diff := func(get func(int) float32, i, n int) float32 {
		switch {
		case n < 2:
			return 0
		case i == 0:
			return get(1) - get(0)
		case i == n-1:
			return get(n-1) - get(n-2)
		default:
			return (get(i+1) - get(i-1)) / 2
		}
	}
	gxv := diff(func(i int) float32 { return v.At(i, y, z) }, x, v.NX)
	gyv := diff(func(j int) float32 { return v.At(x, j, z) }, y, v.NY)
	gzv := diff(func(k int) float32 { return v.At(x, y, k) }, z, v.NZ)
	return geom.V(gxv, gyv, gzv)
}

func interpRef(a, b refCorner, iso float32) (geom.Vec3, geom.Vec3) {
	if a.id > b.id {
		a, b = b, a
	}
	d := b.v - a.v
	t := float32(0.5)
	if d != 0 {
		t = (iso - a.v) / d
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	p := geom.Lerp(a.p, b.p, t)
	n := geom.Lerp(a.g, b.g, t).Scale(-1).Normalize()
	return p, n
}

func tetraRef(a, b, c, d refCorner, iso float32, emit func(geom.Triangle)) int {
	vs := [4]refCorner{a, b, c, d}
	mask := 0
	for i := 0; i < 4; i++ {
		if vs[i].v > iso {
			mask |= 1 << i
		}
	}
	if mask == 0 || mask == 0xF {
		return 0
	}
	if mask > 7 {
		mask ^= 0xF // complement: same crossing edges
	}
	n := 0
	tri := func(e0a, e0b, e1a, e1b, e2a, e2b int) {
		var t geom.Triangle
		t.P[0], t.N[0] = interpRef(vs[e0a], vs[e0b], iso)
		t.P[1], t.N[1] = interpRef(vs[e1a], vs[e1b], iso)
		t.P[2], t.N[2] = interpRef(vs[e2a], vs[e2b], iso)
		if degenerateRef(t) {
			return
		}
		emit(t)
		n++
	}
	switch mask {
	case 0x1: // vertex 0 inside
		tri(0, 1, 0, 2, 0, 3)
	case 0x2: // vertex 1 inside
		tri(1, 0, 1, 3, 1, 2)
	case 0x4: // vertex 2 inside
		tri(2, 0, 2, 1, 2, 3)
	case 0x3: // vertices 0,1 inside: quad on edges 02,03,13,12
		tri(0, 2, 0, 3, 1, 3)
		tri(0, 2, 1, 3, 1, 2)
	case 0x5: // vertices 0,2: quad on edges 01,21,23,03
		tri(0, 1, 2, 1, 2, 3)
		tri(0, 1, 2, 3, 0, 3)
	case 0x6: // vertices 1,2: quad on edges 10,20,23,13
		tri(1, 0, 2, 0, 2, 3)
		tri(1, 0, 2, 3, 1, 3)
	case 0x7: // vertices 0,1,2 inside == vertex 3 outside
		tri(3, 0, 3, 2, 3, 1)
	}
	return n
}

func degenerateRef(t geom.Triangle) bool {
	return t.P[0] == t.P[1] || t.P[1] == t.P[2] || t.P[0] == t.P[2]
}

// ---- comparison helpers ----

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

// appendTriBits appends a triangle's 18 float32s by representation, so
// NaN coordinates compare equal and -0 differs from +0.
func appendTriBits(buf []byte, t geom.Triangle) []byte {
	for _, vs := range [2][3]geom.Vec3{t.P, t.N} {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, f32bits(v.X))
			buf = binary.LittleEndian.AppendUint32(buf, f32bits(v.Y))
			buf = binary.LittleEndian.AppendUint32(buf, f32bits(v.Z))
		}
	}
	return buf
}

func triBitsEqual(a, b geom.Triangle) bool {
	return string(appendTriBits(nil, a)) == string(appendTriBits(nil, b))
}

// matchesRef extracts v at iso with the reference, Extract and ExtractMesh
// and reports the first difference: stats, triangle count, an index out of
// range, or the index of a differing triangle. ExtractMesh appends to a
// mesh that already holds a triangle, so its indices must count from the
// vertices already there.
func matchesRef(v *volume.Volume, iso float32) error {
	var want []geom.Triangle
	wst := walkRef(v, iso, func(t geom.Triangle) { want = append(want, t) })
	got, gst := Extract(v, iso, nil)
	if gst != wst {
		return fmt.Errorf("stats %+v, reference %+v", gst, wst)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d triangles, reference %d", len(got), len(want))
	}
	for i := range got {
		if !triBitsEqual(got[i], want[i]) {
			return fmt.Errorf("triangle %d = %v, reference %v", i, got[i], want[i])
		}
	}

	one := geom.V(1, 1, 1)
	m := geom.Mesh{P: []geom.Vec3{{}, one, one}, N: make([]geom.Vec3, 3), Idx: []uint32{0, 1, 2}}
	if mst := ExtractMesh(v, iso, &m); mst != wst {
		return fmt.Errorf("mesh stats %+v, reference %+v", mst, wst)
	}
	if len(m.P) != len(m.N) || len(m.Idx)%3 != 0 || m.Triangles()-1 != len(want) {
		return fmt.Errorf("mesh of %d positions, %d normals, %d indices; reference %d triangles",
			len(m.P), len(m.N), len(m.Idx), len(want))
	}
	for i, x := range m.Idx {
		if int(x) >= len(m.P) || i >= 3 && x < 3 {
			return fmt.Errorf("mesh index %d = %d of %d vertices", i, x, len(m.P))
		}
	}
	for i := range want {
		if t := m.Triangle(i + 1); !triBitsEqual(t, want[i]) {
			return fmt.Errorf("mesh triangle %d = %v, reference %v", i, t, want[i])
		}
	}
	return nil
}

// quantize snaps every sample to a multiple of step, so whole planes of
// samples equal an iso-value drawn from the same lattice: the interp
// t-clamp and degenerate-triangle paths fire.
func quantize(v *volume.Volume, step float32) {
	for i, s := range v.Data {
		v.Data[i] = float32(math.Round(float64(s/step))) * step
	}
}

// ---- properties ----

// Property: on random plume fields cut into random Partition blocks (some
// only two samples thick), every block extracts exactly as the reference.
func TestWalkMatchesReferenceOnBlocksProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gx, gy, gz := 2+rng.Intn(22), 2+rng.Intn(22), 2+rng.Intn(22)
		full := volume.Rasterize(volume.NewPlumeField(seed, 1+rng.Intn(5)), gx, gy, gz, rng.Float64()*3)
		min, max := full.MinMax()
		iso := min + (max-min)*float32(0.05+0.9*rng.Float64())
		if err := matchesRef(full, iso); err != nil {
			t.Logf("seed %d whole %dx%dx%d iso %v: %v", seed, gx, gy, gz, iso, err)
			return false
		}
		bx, by, bz := 1+rng.Intn(gx-1), 1+rng.Intn(gy-1), 1+rng.Intn(gz-1)
		for _, b := range volume.Partition(gx, gy, gz, bx, by, bz) {
			if err := matchesRef(full.ExtractBlock(b), iso); err != nil {
				t.Logf("seed %d %v iso %v: %v", seed, b, iso, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantized fields whose samples sit exactly on the iso-value —
// t clamps to an endpoint and coincident vertices make degenerate
// triangles — and fields salted with NaN and ±Inf samples still match.
func TestWalkMatchesReferenceOnEdgeCasesProperty(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		v := volume.Rasterize(volume.NewPlumeField(seed, 3), n, n+rng.Intn(3), n+rng.Intn(3), 0)
		step := float32(0.05 + 0.2*rng.Float64())
		quantize(v, step)
		if rng.Intn(2) == 0 {
			for k := rng.Intn(1 + len(v.Data)/8); k > 0; k-- {
				v.Data[rng.Intn(len(v.Data))] = specials[rng.Intn(len(specials))]
			}
		}
		iso := step * float32(rng.Intn(4))
		if err := matchesRef(v, iso); err != nil {
			t.Logf("seed %d %dx%dx%d iso %v: %v", seed, v.NX, v.NY, v.NZ, iso, err)
			return false
		}
		for _, b := range volume.Partition(v.NX, v.NY, v.NZ, 1+rng.Intn(v.NX-1), 1+rng.Intn(v.NY-1), 1) {
			if err := matchesRef(v.ExtractBlock(b), iso); err != nil {
				t.Logf("seed %d %v iso %v: %v", seed, b, iso, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Rows wider than one classification word: widths on both sides of 64 and
// 128 samples, random lattice samples (so some sit on the iso-value) with
// NaN and ±Inf at x = 63, 64 and nx-1, as whole volumes and Partition
// blocks.
func TestWalkMatchesReferenceOnWideRows(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	rng := rand.New(rand.NewSource(64))
	for _, nx := range []int{2, 63, 64, 65, 127, 128, 129, 130} {
		ny, nz := 2+rng.Intn(3), 2+rng.Intn(3)
		v := volume.New(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = float32(rng.Intn(9)) / 8
		}
		for _, x := range []int{63, 64, nx - 1} {
			for k := 0; x < nx && k < 3; k++ {
				v.Set(x, rng.Intn(ny), rng.Intn(nz), specials[rng.Intn(len(specials))])
			}
		}
		for _, iso := range []float32{0.5, 0.95} {
			if err := matchesRef(v, iso); err != nil {
				t.Errorf("whole %dx%dx%d iso %v: %v", nx, ny, nz, iso, err)
			}
			for _, b := range volume.Partition(nx, ny, nz, 1+rng.Intn(min(3, nx-1)), 1+rng.Intn(ny-1), 1) {
				if err := matchesRef(v.ExtractBlock(b), iso); err != nil {
					t.Errorf("%v iso %v: %v", b, iso, err)
				}
			}
		}
	}
}

// Concurrent calls share the idle walkers: blocks of different shapes
// extracted from several goroutines at once must each match the reference.
func TestConcurrentWalksMatchReference(t *testing.T) {
	full := volume.Rasterize(volume.NewPlumeField(11, 4), 29, 23, 19, 0)
	blocks := append(volume.Partition(29, 23, 19, 3, 2, 2), volume.Partition(29, 23, 19, 5, 4, 3)...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(blocks); i += 4 {
				if err := matchesRef(full.ExtractBlock(blocks[i]), 0.4); err != nil {
					t.Errorf("%v: %v", blocks[i], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Extract must append to the caller's slice exactly as the reference emits.
func TestExtractAppendsAfterExisting(t *testing.T) {
	v := volume.Rasterize(volume.NewPlumeField(3, 3), 13, 11, 9, 0)
	min, max := v.MinMax()
	iso := (min + max) / 2
	prefix := []geom.Triangle{{}, {}}
	got, _ := Extract(v, iso, prefix)
	want := []geom.Triangle{{}, {}}
	walkRef(v, iso, func(t geom.Triangle) { want = append(want, t) })
	if len(got) != len(want) {
		t.Fatalf("%d triangles, want %d", len(got), len(want))
	}
	for i := range got {
		if !triBitsEqual(got[i], want[i]) {
			t.Fatalf("triangle %d differs", i)
		}
	}
}

// sceneVolume is the fingerprinted scene: the bench's dense iso-surface
// through one 8x8x6 chunk grid, at a size the unit tests can afford.
func sceneVolume() (*volume.Volume, float32) {
	return volume.Rasterize(volume.NewPlumeField(2002, 5), 33, 33, 25, 1), 0.15
}

// fingerprintScene hashes every triangle (raw bits) and the summed Stats of
// the scene extracted chunk by chunk.
func fingerprintScene(walk func(*volume.Volume, float32, func(geom.Triangle)) Stats) (string, Stats) {
	full, iso := sceneVolume()
	h := fnv.New64a()
	var sum Stats
	var buf []byte
	for _, b := range volume.Partition(full.NX, full.NY, full.NZ, 4, 4, 3) {
		st := walk(full.ExtractBlock(b), iso, func(t geom.Triangle) {
			buf = appendTriBits(buf[:0], t)
			h.Write(buf)
		})
		sum.Cells += st.Cells
		sum.ActiveCells += st.ActiveCells
		sum.Triangles += st.Triangles
	}
	return fmt.Sprintf("%016x", h.Sum64()), sum
}

// expandMesh is ExtractMesh as a walk: it emits the triangles expanded by
// index.
func expandMesh(v *volume.Volume, iso float32, emit func(geom.Triangle)) Stats {
	var m geom.Mesh
	st := ExtractMesh(v, iso, &m)
	for t := range m.Triangles() {
		emit(m.Triangle(t))
	}
	return st
}

// The fingerprint was committed while the per-tetrahedron walk was still
// the production code, so it pins that output independently of walkRef.
const sceneFingerprint = "bc90cd6308b6b810"

var sceneStats = Stats{Cells: 24576, ActiveCells: 2520, Triangles: 14780}

func TestSceneFingerprintPinned(t *testing.T) {
	for name, walk := range map[string]func(*volume.Volume, float32, func(geom.Triangle)) Stats{
		"ExtractMesh": expandMesh, "walkRef": walkRef,
	} {
		fp, st := fingerprintScene(walk)
		if fp != sceneFingerprint || st != sceneStats {
			t.Errorf("%s: fingerprint %s %+v, pinned %s %+v", name, fp, st, sceneFingerprint, sceneStats)
		}
	}
}

// FuzzWalkMatchesReference decodes bytes into a volume of up to 130×6×6
// arbitrary float32 samples (NaN and ±Inf included), optionally placed as a
// block of a larger grid, and an iso-value, and checks Extract and
// ExtractMesh against walkRef. Rows wider than 64 samples span several
// classification words.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0, 0, 0, 0, 0})
	f.Add(append([]byte{3, 4, 5, 1, 0, 0, 0, 0x3f}, make([]byte, 64)...))
	seedVol := volume.Rasterize(volume.NewPlumeField(1, 2), 6, 6, 6, 0)
	seed := []byte{5, 5, 5, 0x93, 0, 0, 0, 0x3f}
	for _, s := range seedVol.Data {
		seed = binary.LittleEndian.AppendUint32(seed, f32bits(s))
	}
	f.Add(seed)
	// Rows wider than one classification word with NaN and ±Inf at x = 63,
	// 64 and nx-1: a whole volume, and a block at offset (1,2,0).
	for i, nx := range []int{65, 129} {
		wide := volume.Rasterize(volume.NewPlumeField(1, 2), nx, 2, 2, 0)
		lo, hi := wide.MinMax()
		wide.Data[63], wide.Data[nx+64], wide.Data[4*nx-1] = float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))
		seed := binary.LittleEndian.AppendUint32([]byte{byte(nx - 1), 1, 1, []byte{0, 0x93}[i]}, math.Float32bits((lo+hi)/2))
		for _, s := range wide.Data {
			seed = binary.LittleEndian.AppendUint32(seed, f32bits(s))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		nx, ny, nz := 1+int(data[0])%130, 1+int(data[1])%6, 1+int(data[2])%6
		v := volume.New(nx, ny, nz)
		if place := data[3]; place&1 != 0 {
			// A block at offset (ox,oy,oz) of a grid up to 3 samples wider.
			ox, oy, oz := int(place>>1)&3, int(place>>3)&3, int(place>>5)&3
			v.Block = volume.Block{X0: ox, Y0: oy, Z0: oz, NX: nx, NY: ny, NZ: nz,
				GX: nx + ox + 1, GY: ny + oy + 1, GZ: nz + oz + 1}
		}
		iso := math.Float32frombits(binary.LittleEndian.Uint32(data[4:8]))
		rest := data[8:]
		for i := range v.Data {
			if len(rest) < 4 {
				break
			}
			v.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest))
			rest = rest[4:]
		}
		if err := matchesRef(v, iso); err != nil {
			t.Fatal(err)
		}
	})
}
