// Package mcubes implements isosurface extraction on rectilinear grids, the
// transformation step of the paper's isosurface rendering application
// (Lorensen & Cline's marching cubes [23]).
//
// Cells are polygonized through the Freudenthal decomposition of each cube
// into six tetrahedra sharing the main diagonal — the standard crack-free
// marching-cubes variant. The decomposition is translation-invariant, so
// neighboring cells (and neighboring *blocks* processed by different
// transparent copies of the extract filter) generate bit-identical vertices
// on their shared faces: block-parallel extraction is seamless, which the
// package's watertightness property tests verify.
//
// Each voxel is processed independently, so extraction pipelines buffer by
// buffer and parallelizes across transparent filter copies (paper §3.1.1).
//
// The walk does work in proportion to the surface, not the volume. Each
// sample is classified once: a sample row becomes a row of bit words (bit x
// set when sample x is above the isovalue) in a ring over the two sample
// slabs a cell layer touches, and a few word operations over a cell row's
// four sample rows yield its active cells, those whose corners are neither
// all above nor all below. Only active cells are visited, in the scan order.
// Each resolves every distinct edge its case crosses once, from an edge
// cache over the same two slabs that holds each crossing's index in an
// indexed mesh, or on a miss by interpolating the crossing straight from its
// two samples and appending it; its triangles are then index triples into
// the cell's resolved edges. A crossing is a pure function of its two
// samples and the isovalue, so the triangles, expanded by index, are
// bit-identical to evaluating each tetrahedron independently (ref_test.go
// keeps that evaluation as the oracle).
package mcubes

import (
	"math"
	"math/bits"
	"runtime"
	"slices"

	"datacutter/internal/geom"
	"datacutter/internal/volume"
)

// The six tetrahedra of the Freudenthal decomposition, as cube-corner
// indices (corner c = dx + 2*dy + 4*dz). Each is a monotone path
// (0,0,0) -> (1,1,1), so every tetrahedron edge runs from a lower corner c
// to an upper corner c|d along one of the seven directions d = 1..7.
var tets = [6][4]int{
	{0, 1, 3, 7}, // +x +y +z
	{0, 1, 5, 7}, // +x +z +y
	{0, 2, 3, 7}, // +y +x +z
	{0, 2, 6, 7}, // +y +z +x
	{0, 4, 5, 7}, // +z +x +y
	{0, 4, 6, 7}, // +z +y +x
}

// tetTris polygonizes one tetrahedron: for each inside mask (bit i set when
// vertex i is above the isovalue; complemented masks share crossing edges
// and are folded onto masks <= 7), its triangles as three edges, each a
// pair of tetrahedron vertices in interpolation argument order.
var tetTris = [8][][3][2]int{
	0x1: {{{0, 1}, {0, 2}, {0, 3}}},                           // vertex 0 inside
	0x2: {{{1, 0}, {1, 3}, {1, 2}}},                           // vertex 1 inside
	0x4: {{{2, 0}, {2, 1}, {2, 3}}},                           // vertex 2 inside
	0x3: {{{0, 2}, {0, 3}, {1, 3}}, {{0, 2}, {1, 3}, {1, 2}}}, // 0,1: quad on edges 02,03,13,12
	0x5: {{{0, 1}, {2, 1}, {2, 3}}, {{0, 1}, {2, 3}, {0, 3}}}, // 0,2: quad on edges 01,21,23,03
	0x6: {{{1, 0}, {2, 0}, {2, 3}}, {{1, 0}, {2, 3}, {1, 3}}}, // 1,2: quad on edges 10,20,23,13
	0x7: {{{3, 0}, {3, 2}, {3, 1}}},                           // 0,1,2 inside == vertex 3 outside
}

// edge is a tetrahedron edge as a pair of cube corners, in interpolation
// argument order.
type edge [2]uint8

// cases is the cell case table: for each cube mask (bit c set when corner
// c is above the isovalue), the distinct edges its six tetrahedra's
// triangles cross, in first-use order, and those triangles in emission
// order as indices into that list. Edges are distinct as ordered pairs:
// the crossing on an edge whose ends share a global id depends on argument
// order, so a cell shares it only among the triangles that use the edge
// the same way round.
var cases [256]struct {
	edges []edge
	tris  [][3]uint8
}

// maxCaseEdges is the longest edge list in cases.
const maxCaseEdges = 16

func init() {
	for m := range cases {
		c := &cases[m]
		for _, t := range tets {
			mask := 0
			for i, k := range t {
				mask |= (m >> k & 1) << i
			}
			if mask > 7 {
				mask ^= 0xF
			}
			for _, tri := range tetTris[mask] {
				var local [3]uint8
				for j, e := range tri {
					es := edge{uint8(t[e[0]]), uint8(t[e[1]])}
					k := slices.Index(c.edges, es)
					if k < 0 {
						k = len(c.edges)
						c.edges = append(c.edges, es)
					}
					local[j] = uint8(k)
				}
				c.tris = append(c.tris, local)
			}
		}
		if len(c.edges) > maxCaseEdges {
			panic("mcubes: a case crosses more than maxCaseEdges edges")
		}
	}
}

// Stats reports work done by one extraction pass.
type Stats struct {
	Cells       int // marching cells visited
	ActiveCells int // cells intersected by the isosurface
	Triangles   int
}

// ExtractMesh appends the isosurface of v at isovalue iso to m as an
// indexed mesh: each crossing is interpolated once and appended in
// first-use order, and every triangle refers to it by index (a crossing
// whose edge cannot be cached is appended again for each use). Vertices are
// in the global normalized coordinates of v's block; normals derive from
// the sampled field's gradient and point toward decreasing values.
func ExtractMesh(v *volume.Volume, iso float32, m *geom.Mesh) Stats {
	if v.NX < 2 || v.NY < 2 || v.NZ < 2 {
		return Stats{}
	}
	var w *walker
	select {
	case w = <-idle:
	default:
		w = new(walker)
	}
	w.m = m
	w.walk(v, iso)
	st := w.st
	w.m, w.data = nil, nil
	if len(w.edges) <= maxIdleEdges {
		select {
		case idle <- w:
		default:
		}
	}
	return st
}

// Extract appends the isosurface triangles of v at iso to out: ExtractMesh's
// triangles, expanded by index. Only the bench replay calls this; removed
// with ROADMAP 16(c).
func Extract(v *volume.Volume, iso float32, out []geom.Triangle) ([]geom.Triangle, Stats) {
	var m geom.Mesh
	st := ExtractMesh(v, iso, &m)
	for t := range m.Triangles() {
		out = append(out, m.Triangle(t))
	}
	return out, st
}

// idle recycles walkers between calls: transparent copies of the extract
// filter run concurrently, each call borrowing its own. Unlike a sync.Pool
// it survives garbage collections, so a steady stream of calls allocates
// nothing. It holds one walker per P, as extraction is CPU-bound, and drops
// walkers whose edge ring outgrew maxIdleEdges (whole-volume calls).
var idle = make(chan *walker, runtime.GOMAXPROCS(0))

const maxIdleEdges = 1 << 16

// walker is one extraction pass's state and its reusable scratch.
type walker struct {
	data       []float32
	iso        float32
	nx, ny, nz int
	nxy        int
	st         Stats
	m          *geom.Mesh // the call's output

	// The classification of the two sample slabs a cell layer touches, in
	// a ring (slab z in half z&1): row y of a slab is rowWords words, bit
	// x of word x/64 set when sample x is above the isovalue (NaN never
	// is). Each row has a word more than its samples need, so the word
	// after the one holding a row's last cell is in the row.
	above    []uint64
	rowWords int

	// Per-axis sample positions (PosOf) and global-id terms.
	posX, posY, posZ []float32
	idX, idY, idZ    []int64
	// cacheable[d] is false when the two ends of a direction-d edge share
	// a global id, so the crossing depends on argument order.
	cacheable [8]bool

	// Edge crossings' vertex indices in m, keyed by lower sample and
	// direction, in a ring over the two sample slabs (z&1) a cell layer
	// touches. An entry is valid when its stamp is its slab's stamp for
	// this call, stamp(z). The edge from lower corner c in direction d of
	// cell (x,y,z) has slot (y*nx+x)*7 + slotOff[z&1][c] + d.
	edges   []edgeSlot
	slotOff [2][8]int
	base    uint32 // stamp(z) = base + 1 + z
	gen     uint32 // first unused stamp
}

type edgeSlot struct {
	stamp, idx uint32
}

func (w *walker) walk(v *volume.Volume, iso float32) {
	w.data, w.iso = v.Data, iso
	w.nx, w.ny, w.nz = v.NX, v.NY, v.NZ
	w.nxy = v.NX * v.NY
	w.st = Stats{Cells: (v.NX - 1) * (v.NY - 1) * (v.NZ - 1)}
	w.tables(v)

	// A row's cells x < nx-1 take cellWords words, the last masked by tail.
	cellWords := (w.nx + 62) / 64
	tail := ^uint64(0) >> (uint(1-w.nx) & 63)
	rw, slab := w.rowWords, w.ny*w.rowWords
	w.classify(0)
	for z := 0; z < w.nz-1; z++ {
		w.classify(z + 1)
		lo, hi := w.above[z&1*slab:][:slab], w.above[(z+1)&1*slab:][:slab]
		for y := 0; y < w.ny-1; y++ {
			// The cell row's four sample rows: (y,z), (y+1,z), (y,z+1),
			// (y+1,z+1) — cube corners 0, 2, 4, 6 at dx = 0.
			s0, s2 := lo[y*rw:][:rw], lo[(y+1)*rw:][:rw]
			s4, s6 := hi[y*rw:][:rw], hi[(y+1)*rw:][:rw]
			for i := 0; i < cellWords; i++ {
				// A cell is active unless its corners at x and x+1 are
				// all above or all below.
				some := s0[i] | s2[i] | s4[i] | s6[i]
				all := s0[i] & s2[i] & s4[i] & s6[i]
				someNext := s0[i+1] | s2[i+1] | s4[i+1] | s6[i+1]
				allNext := s0[i+1] & s2[i+1] & s4[i+1] & s6[i+1]
				act := (some | some>>1 | someNext<<63) &^ (all & (all>>1 | allNext<<63))
				if i == cellWords-1 {
					act &= tail
				}
				w.st.ActiveCells += bits.OnesCount64(act)
				for ; act != 0; act &= act - 1 {
					k := uint(bits.TrailingZeros64(act))
					m := pair(s0, i, k) | pair(s2, i, k)<<2 | pair(s4, i, k)<<4 | pair(s6, i, k)<<6
					w.cell(i*64+int(k), y, z, uint8(m))
				}
			}
		}
	}
}

// pair returns the classification bits of samples 64i+k and 64i+k+1 of a
// row.
func pair(row []uint64, i int, k uint) uint64 {
	return (row[i]>>k | row[i+1]<<(63-k)<<1) & 3
}

// classify packs slab z's samples into its half of the ring.
func (w *walker) classify(z int) {
	iso, nx, slab := w.iso, w.nx, w.ny*w.rowWords
	out := w.above[z&1*slab:][:slab]
	samples := w.data[z*w.nxy:][:w.nxy]
	for y := 0; y < w.ny; y++ {
		row, words := samples[y*nx:][:nx], out[y*w.rowWords:][:w.rowWords]
		for i := range words {
			var word uint64
			for k, s := range row[min(64*i, nx):min(64*i+64, nx)] {
				if s > iso {
					word |= 1 << k
				}
			}
			words[i] = word
		}
	}
}

// tables builds the per-call axis tables, sizes the classification and
// edge rings and reserves this call's slab stamps.
func (w *walker) tables(v *volume.Volume) {
	b := v.Block
	gx, gy, gz := b.GX, b.GY, b.GZ
	if gx == 0 {
		gx, gy, gz = v.NX, v.NY, v.NZ
	}
	w.posX, w.idX = axis(w.posX, w.idX, b.X0, v.NX, gx, 1)
	w.posY, w.idY = axis(w.posY, w.idY, b.Y0, v.NY, gy, int64(gx))
	w.posZ, w.idZ = axis(w.posZ, w.idZ, b.Z0, v.NZ, gz, int64(gx)*int64(gy))
	for d := 1; d < 8; d++ {
		diff := int64(d&1) + int64(d>>1&1)*int64(gx) + int64(d>>2)*int64(gx)*int64(gy)
		w.cacheable[d] = diff != 0
	}

	w.rowWords = (w.nx+63)/64 + 1
	if n := 2 * w.ny * w.rowWords; len(w.above) < n {
		w.above = make([]uint64, n)
	}
	if n := 7 * 2 * w.nxy; len(w.edges) < n {
		w.edges = make([]edgeSlot, n)
	}
	for zp := range w.slotOff {
		for c := range w.slotOff[zp] {
			w.slotOff[zp][c] = ((((zp+c>>2)&1)*w.ny+c>>1&1)*w.nx+c&1)*7 - 1
		}
	}
	if uint64(w.gen)+uint64(w.nz) >= math.MaxUint32 {
		clear(w.edges)
		w.gen = 0
	}
	w.base = w.gen
	w.gen += uint32(w.nz)
}

// axis fills one axis's positions — PosOf's float32(o+i)/(g-1) — and
// global-id terms int64(o+i)*stride.
func axis(pos []float32, ids []int64, o, n, g int, stride int64) ([]float32, []int64) {
	den := float32(1)
	if g > 1 {
		den = float32(g - 1)
	}
	pos, ids = pos[:0], ids[:0]
	for i := 0; i < n; i++ {
		pos = append(pos, float32(o+i)/den)
		ids = append(ids, int64(o+i)*stride)
	}
	return pos, ids
}

func (w *walker) stamp(z int) uint32 { return w.base + 1 + uint32(z) }

// cell polygonizes the active cell at (x,y,z) with cube mask m: it
// resolves each edge of its case once, from the edge cache or as a new
// crossing, then emits the case's triangles. A triangle is degenerate
// when two of its vertices have equal positions: two edges that clamp onto
// the same sample give equal points under different indices.
func (w *walker) cell(x, y, z int, m uint8) {
	c := &cases[m]
	var idx [maxCaseEdges]uint32
	row := (y*w.nx + x) * 7
	off := &w.slotOff[z&1]
	for k, e := range c.edges {
		lo, d := min(e[0], e[1]), e[0]^e[1]
		if !w.cacheable[d] {
			idx[k] = w.crossing(x, y, z, e)
			continue
		}
		slot := &w.edges[row+off[lo]+int(d)]
		if st := w.stamp(z + int(lo>>2)); slot.stamp != st {
			*slot = edgeSlot{st, w.crossing(x, y, z, e)}
		}
		idx[k] = slot.idx
	}
	p := w.m.P
	for _, t := range c.tris {
		i0, i1, i2 := idx[t[0]], idx[t[1]], idx[t[2]]
		if p[i0] == p[i1] || p[i1] == p[i2] || p[i0] == p[i2] {
			continue
		}
		w.m.Idx = append(w.m.Idx, i0, i1, i2)
		w.st.Triangles++
	}
}

// crossing appends the isosurface crossing on edge e of the cell at
// (x,y,z) to the mesh and returns its index. The end with the smaller
// global sample id is the interpolation origin, so every cell sharing the
// edge produces the identical vertex; ends of equal id keep e's order.
func (w *walker) crossing(x, y, z int, e edge) uint32 {
	ax, ay, az := x+int(e[0]&1), y+int(e[0]>>1&1), z+int(e[0]>>2)
	bx, by, bz := x+int(e[1]&1), y+int(e[1]>>1&1), z+int(e[1]>>2)
	if w.idX[ax]+w.idY[ay]+w.idZ[az] > w.idX[bx]+w.idY[by]+w.idZ[bz] {
		ax, ay, az, bx, by, bz = bx, by, bz, ax, ay, az
	}
	va, vb := w.data[ax+ay*w.nx+az*w.nxy], w.data[bx+by*w.nx+bz*w.nxy]
	d := vb - va
	t := float32(0.5)
	if d != 0 {
		t = (w.iso - va) / d
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	pa, pb := geom.V(w.posX[ax], w.posY[ay], w.posZ[az]), geom.V(w.posX[bx], w.posY[by], w.posZ[bz])
	w.m.P = append(w.m.P, geom.Lerp(pa, pb, t))
	w.m.N = append(w.m.N, geom.Lerp(w.gradient(ax, ay, az), w.gradient(bx, by, bz), t).Scale(-1).Normalize())
	return uint32(len(w.m.P) - 1)
}

// gradient computes the sampled field's gradient at a sample point via
// central differences, falling back to one-sided differences at block
// borders. The per-axis step is the grid spacing in normalized coordinates.
func (w *walker) gradient(x, y, z int) geom.Vec3 {
	i := x + y*w.nx + z*w.nxy
	return geom.V(diff(w.data, i, 1, x, w.nx), diff(w.data, i, w.nx, y, w.ny), diff(w.data, i, w.nxy, z, w.nz))
}

// diff is the difference along one axis at flat index i, axis position k
// of n samples, stride s apart.
func diff(d []float32, i, s, k, n int) float32 {
	switch {
	case k == 0:
		return d[i+s] - d[i]
	case k == n-1:
		return d[i] - d[i-s]
	default:
		return (d[i+s] - d[i-s]) / 2
	}
}
