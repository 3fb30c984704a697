package geom

import "math"

// Mat4 is a 4x4 row-major transformation matrix (float64 for numerical
// headroom in composed view transforms).
type Mat4 [16]float64

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Mul returns a * b (apply b first, then a).
func (a Mat4) Mul(b Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += a[r*4+k] * b[k*4+c]
			}
			out[r*4+c] = s
		}
	}
	return out
}

// Apply transforms a point, performing the perspective divide. The returned
// w is the clip-space w before division (w <= 0 means the point is at or
// behind the eye plane and must be culled). The pointer receiver spares
// the rasterizer a 128-byte matrix copy per vertex.
func (a *Mat4) Apply(v Vec3) (out Vec3, w float64) {
	x, y, z := float64(v.X), float64(v.Y), float64(v.Z)
	ox := a[0]*x + a[1]*y + a[2]*z + a[3]
	oy := a[4]*x + a[5]*y + a[6]*z + a[7]
	oz := a[8]*x + a[9]*y + a[10]*z + a[11]
	ow := a[12]*x + a[13]*y + a[14]*z + a[15]
	if ow != 0 {
		ox, oy, oz = ox/ow, oy/ow, oz/ow
	}
	return Vec3{float32(ox), float32(oy), float32(oz)}, ow
}

// LookAt builds a view matrix with the camera at eye, looking at center,
// with the given up hint.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.Cross(up.Normalize()).Normalize()
	u := s.Cross(f)
	return Mat4{
		float64(s.X), float64(s.Y), float64(s.Z), -float64(s.Dot(eye)),
		float64(u.X), float64(u.Y), float64(u.Z), -float64(u.Dot(eye)),
		-float64(f.X), -float64(f.Y), -float64(f.Z), float64(f.Dot(eye)),
		0, 0, 0, 1,
	}
}

// Perspective builds a perspective projection with the vertical field of
// view in radians.
func Perspective(fovY, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(fovY/2)
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}

// Viewport maps normalized device coordinates [-1,1]² to pixel coordinates
// of a w×h image, leaving z untouched for depth testing.
func Viewport(w, h int) Mat4 {
	fw, fh := float64(w), float64(h)
	return Mat4{
		fw / 2, 0, 0, fw / 2,
		0, -fh / 2, 0, fh / 2,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Camera bundles the viewing parameters of one rendering (part of the
// unit-of-work descriptor in the isosurface application).
type Camera struct {
	Eye, Center, Up Vec3
	FovY            float64 // radians
	Near, Far       float64
}

// DefaultCamera frames the unit cube [0,1]^3 from a three-quarter view.
func DefaultCamera() Camera {
	return Camera{
		Eye:    V(2.2, 1.6, 2.4),
		Center: V(0.5, 0.5, 0.5),
		Up:     V(0, 1, 0),
		FovY:   math.Pi / 5,
		Near:   0.1,
		Far:    10,
	}
}

// Matrix returns the composite world-to-pixel transform for a w×h image.
func (c Camera) Matrix(w, h int) Mat4 {
	proj := Perspective(c.FovY, float64(w)/float64(h), c.Near, c.Far)
	view := LookAt(c.Eye, c.Center, c.Up)
	return Viewport(w, h).Mul(proj).Mul(view)
}

// ViewDir returns the unit vector from eye toward center.
func (c Camera) ViewDir() Vec3 { return c.Center.Sub(c.Eye).Normalize() }
