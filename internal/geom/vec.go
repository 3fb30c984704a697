// Package geom provides the small linear-algebra kit shared by the
// isosurface extraction and rendering substrates: 3-vectors, 4x4 matrices,
// triangles, and camera transforms.
package geom

import "math"

// Vec3 is a 3-component float32 vector. float32 keeps triangle soups half
// the size of float64, which matters when streaming isosurfaces of large
// volumes.
type Vec3 struct{ X, Y, Z float32 }

// V constructs a Vec3.
func V(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec3) Scale(s float32) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float32 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean norm.
func (a Vec3) Len() float32 { return float32(math.Sqrt(float64(a.Dot(a)))) }

// Normalize returns a unit vector in a's direction (zero stays zero).
func (a Vec3) Normalize() Vec3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Lerp returns a + t*(b-a).
func Lerp(a, b Vec3, t float32) Vec3 {
	return Vec3{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y), a.Z + t*(b.Z-a.Z)}
}

// Triangle is one isosurface facet with per-vertex normals for shading.
type Triangle struct {
	P [3]Vec3 // positions, world coordinates
	N [3]Vec3 // unit normals
}

// Centroid returns the triangle's center of mass.
func (t Triangle) Centroid() Vec3 {
	return t.P[0].Add(t.P[1]).Add(t.P[2]).Scale(1.0 / 3.0)
}

// Area returns the triangle's surface area.
func (t Triangle) Area() float32 {
	return t.P[1].Sub(t.P[0]).Cross(t.P[2].Sub(t.P[0])).Len() / 2
}

// TriangleBytes is the serialized size of one Triangle (6 Vec3 of 3
// float32), used for stream buffer accounting.
const TriangleBytes = 6 * 3 * 4

// Mesh is an indexed triangle mesh: vertex i has position P[i] and unit
// normal N[i], and triangle t is the vertices Idx[3t], Idx[3t+1], Idx[3t+2].
// A vertex shared by several triangles is stored once.
type Mesh struct {
	P, N []Vec3
	Idx  []uint32
}

// Reset empties m, keeping its storage.
func (m *Mesh) Reset() { m.P, m.N, m.Idx = m.P[:0], m.N[:0], m.Idx[:0] }

// Triangles returns the number of triangles.
func (m *Mesh) Triangles() int { return len(m.Idx) / 3 }

// Triangle returns triangle t with its vertices expanded.
func (m *Mesh) Triangle(t int) Triangle {
	i, j, k := m.Idx[3*t], m.Idx[3*t+1], m.Idx[3*t+2]
	return Triangle{P: [3]Vec3{m.P[i], m.P[j], m.P[k]}, N: [3]Vec3{m.N[i], m.N[j], m.N[k]}}
}
