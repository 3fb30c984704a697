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
// The walk is slab-wise: cells are classified from flat sample rows, each
// reusing its left neighbor's four +x corners, and each edge crossing is
// interpolated once per call, appended to an indexed mesh, and its index
// cached over the two sample slabs the current cell layer touches. A
// crossing is a pure function of its two samples and the isovalue, so the
// triangles, expanded by index, are bit-identical to evaluating each
// tetrahedron independently (ref_test.go keeps that evaluation as the
// oracle).
package mcubes

import (
	"math"
	"runtime"

	"datacutter/internal/geom"
	"datacutter/internal/volume"
)

// corner is one cell corner with everything interpolation needs. The id is
// the corner's global sample index, used to orient edge interpolation
// deterministically so shared edges produce bit-identical vertices no
// matter which cell or tetrahedron generates them.
type corner struct {
	p  geom.Vec3
	g  geom.Vec3
	v  float32
	id int64
}

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

// edge is a tetrahedron edge as a pair of cube corners.
type edge [2]uint8

// cubeTris is the whole cell's case table: for each cube mask (bit c set
// when corner c is above the isovalue), the triangles of its six
// tetrahedra in emission order.
var cubeTris [256][][3]edge

func init() {
	for m := range cubeTris {
		for _, t := range tets {
			mask := 0
			for i, c := range t {
				mask |= (m >> c & 1) << i
			}
			if mask > 7 {
				mask ^= 0xF
			}
			for _, tri := range tetTris[mask] {
				var es [3]edge
				for k, e := range tri {
					es[k] = edge{uint8(t[e[0]]), uint8(t[e[1]])}
				}
				cubeTris[m] = append(cubeTris[m], es)
			}
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
// Expanded by index, the triangles are Walk's, in Walk's order.
func ExtractMesh(v *volume.Volume, iso float32, m *geom.Mesh) Stats {
	return run(v, iso, m, nil)
}

// Walk extracts the isosurface of v at isovalue iso, invoking emit for
// every triangle, each expanded from the indexed mesh ExtractMesh builds.
func Walk(v *volume.Volume, iso float32, emit func(geom.Triangle)) Stats {
	return run(v, iso, nil, func(m *geom.Mesh) {
		for t := range m.Triangles() {
			emit(m.Triangle(t))
		}
	})
}

// Extract appends the isosurface triangles of v at iso to out.
func Extract(v *volume.Volume, iso float32, out []geom.Triangle) ([]geom.Triangle, Stats) {
	st := run(v, iso, nil, func(m *geom.Mesh) {
		for t := range m.Triangles() {
			out = append(out, m.Triangle(t))
		}
	})
	return out, st
}

// idle recycles walkers between calls: transparent copies of the extract
// filter run concurrently, each call borrowing its own. Unlike a sync.Pool
// it survives garbage collections, so a steady stream of calls allocates
// nothing. It holds one walker per P, as extraction is CPU-bound, and drops
// walkers whose edge ring outgrew maxIdleEdges (whole-volume calls), and
// the scratch mesh of Walk and Extract once it outgrew 3·maxIdleEdges
// indices.
var idle = make(chan *walker, runtime.GOMAXPROCS(0))

const maxIdleEdges = 1 << 16

// run extracts v into m, or, when m is nil, into the walker's scratch mesh
// and hands that to expand.
func run(v *volume.Volume, iso float32, m *geom.Mesh, expand func(*geom.Mesh)) Stats {
	if v.NX < 2 || v.NY < 2 || v.NZ < 2 {
		return Stats{}
	}
	var w *walker
	select {
	case w = <-idle:
	default:
		w = new(walker)
	}
	if m == nil {
		w.scratch.Reset()
		w.m = &w.scratch
	} else {
		w.m = m
	}
	w.walk(v, iso)
	st := w.st
	if expand != nil {
		expand(w.m)
	}
	w.m, w.data = nil, nil
	if cap(w.scratch.Idx) > 3*maxIdleEdges {
		w.scratch = geom.Mesh{}
	}
	if len(w.edges) <= maxIdleEdges {
		select {
		case idle <- w:
		default:
		}
	}
	return st
}

// walker is one extraction pass's state and its reusable scratch.
type walker struct {
	data       []float32
	iso        float32
	nx, ny, nz int
	nxy        int
	st         Stats
	m          *geom.Mesh // the call's output
	scratch    geom.Mesh  // the output of Walk and Extract

	// Per-axis sample positions (PosOf) and global-id terms.
	posX, posY, posZ []float32
	idX, idY, idZ    []int64
	// cacheable[d] is false when the two ends of a direction-d edge share
	// a global id, so interp's result depends on argument order.
	cacheable [8]bool

	// Edge crossings' vertex indices in m, keyed by lower sample and
	// direction, in a ring over the two sample slabs (z&1) a cell layer
	// touches. An entry is valid when its stamp is its slab's stamp for
	// this call, stamp(z).
	edges []edgeSlot
	base  uint32 // stamp(z) = base + 1 + z
	gen   uint32 // first unused stamp
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

	nx, nxy, data := w.nx, w.nxy, w.data
	for z := 0; z < w.nz-1; z++ {
		for y := 0; y < w.ny-1; y++ {
			// The cell row's four sample rows: (y,z), (y+1,z), (y,z+1),
			// (y+1,z+1) — cube corners 0, 2, 4, 6 at dx = 0.
			r0 := y*nx + z*nxy
			r2 := r0 + nxy
			s0, s2 := data[r0:r0+nx], data[r0+nx:r0+2*nx]
			s4, s6 := data[r2:r2+nx], data[r2+nx:r2+2*nx]
			left := above(s0[0], iso) | above(s2[0], iso)<<2 | above(s4[0], iso)<<4 | above(s6[0], iso)<<6
			for x := 1; x < nx; x++ {
				right := above(s0[x], iso) | above(s2[x], iso)<<2 | above(s4[x], iso)<<4 | above(s6[x], iso)<<6
				m := left | right<<1
				left = right
				if m != 0 && m != 0xFF {
					w.st.ActiveCells++
					w.cell(x-1, y, z, m)
				}
			}
		}
	}
}

// above is the classification bit of one sample (NaN is never above).
func above(s, iso float32) uint8 {
	if s > iso {
		return 1
	}
	return 0
}

// tables builds the per-call axis tables, sizes the edge ring and reserves
// this call's slab stamps.
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

	if n := 7 * 2 * w.nxy; len(w.edges) < n {
		w.edges = make([]edgeSlot, n)
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

// cell polygonizes the active cell at (x,y,z) with cube mask m. A
// triangle is degenerate when two of its vertices have equal positions:
// two edges that clamp onto the same sample give equal points under
// different indices.
func (w *walker) cell(x, y, z int, m uint8) {
	for _, es := range cubeTris[m] {
		i0 := w.vertex(x, y, z, es[0])
		i1 := w.vertex(x, y, z, es[1])
		i2 := w.vertex(x, y, z, es[2])
		if p := w.m.P; p[i0] == p[i1] || p[i1] == p[i2] || p[i0] == p[i2] {
			continue
		}
		w.m.Idx = append(w.m.Idx, i0, i1, i2)
		w.st.Triangles++
	}
}

// vertex returns the index of the crossing on edge e of the cell at
// (x,y,z), from the edge cache when an earlier tetrahedron or cell already
// interpolated it, else appending it to the mesh.
func (w *walker) vertex(x, y, z int, e edge) uint32 {
	a, b := int(e[0]), int(e[1])
	if !w.cacheable[a^b] {
		return w.add(interp(w.corner(x, y, z, a), w.corner(x, y, z, b), w.iso))
	}
	lo, hi := min(a, b), max(a, b)
	sx, sy, sz := x+lo&1, y+lo>>1&1, z+lo>>2
	slot := &w.edges[(((sz&1)*w.ny+sy)*w.nx+sx)*7+(lo^hi)-1]
	st := w.stamp(sz)
	if slot.stamp == st {
		return slot.idx
	}
	i := w.add(interp(w.corner(x, y, z, lo), w.corner(x, y, z, hi), w.iso))
	*slot = edgeSlot{st, i}
	return i
}

// add appends a vertex to the mesh and returns its index.
func (w *walker) add(p, n geom.Vec3) uint32 {
	w.m.P = append(w.m.P, p)
	w.m.N = append(w.m.N, n)
	return uint32(len(w.m.P) - 1)
}

// corner gathers cube corner c of the cell at (x,y,z).
func (w *walker) corner(x, y, z, c int) corner {
	x, y, z = x+c&1, y+c>>1&1, z+c>>2
	return corner{
		p:  geom.V(w.posX[x], w.posY[y], w.posZ[z]),
		g:  w.gradient(x, y, z),
		v:  w.data[x+y*w.nx+z*w.nxy],
		id: w.idX[x] + w.idY[y] + w.idZ[z],
	}
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

// interp returns the isosurface crossing on edge (a,b) with deterministic
// endpoint orientation: the corner with the smaller global sample id is
// always the interpolation origin, so every cell that shares the edge
// produces the identical vertex.
func interp(a, b corner, iso float32) (geom.Vec3, geom.Vec3) {
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
