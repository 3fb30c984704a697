package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feq(a, b, tol float32) bool { return float32(math.Abs(float64(a-b))) <= tol }

func TestVecOps(t *testing.T) {
	a, b := V(1, 2, 3), V(4, 5, 6)
	if got := a.Add(b); got != V(5, 7, 9) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(3, 3, 3) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); got != V(0, 0, 1) {
		t.Fatalf("Cross = %v", got)
	}
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Fatalf("Len = %v", got)
	}
	if got := V(0, 0, 9).Normalize(); got != V(0, 0, 1) {
		t.Fatalf("Normalize = %v", got)
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Fatalf("Normalize zero = %v", got)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := V(1, 2, 3), V(5, 6, 7)
	if Lerp(a, b, 0) != a || Lerp(a, b, 1) != b {
		t.Fatal("Lerp endpoints wrong")
	}
	mid := Lerp(a, b, 0.5)
	if mid != V(3, 4, 5) {
		t.Fatalf("Lerp mid = %v", mid)
	}
}

func TestCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		// Bound magnitudes to keep float32 error in check.
		clamp := func(v float32) float32 {
			if v != v || v > 1e3 || v < -1e3 {
				return 1
			}
			return v
		}
		a := V(clamp(ax), clamp(ay), clamp(az))
		b := V(clamp(bx), clamp(by), clamp(bz))
		c := a.Cross(b)
		scale := a.Len()*b.Len() + 1
		return feq(c.Dot(a)/scale, 0, 1e-3) && feq(c.Dot(b)/scale, 0, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleAreaAndCentroid(t *testing.T) {
	tr := Triangle{P: [3]Vec3{V(0, 0, 0), V(2, 0, 0), V(0, 2, 0)}}
	if got := tr.Area(); got != 2 {
		t.Fatalf("Area = %v", got)
	}
	c := tr.Centroid()
	if !feq(c.X, 2.0/3, 1e-6) || !feq(c.Y, 2.0/3, 1e-6) || c.Z != 0 {
		t.Fatalf("Centroid = %v", c)
	}
}

func TestIdentityApply(t *testing.T) {
	id := Identity()
	v, w := id.Apply(V(1, 2, 3))
	if v != V(1, 2, 3) || w != 1 {
		t.Fatalf("identity apply = %v %v", v, w)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randMat := func() Mat4 {
		var m Mat4
		for i := range m {
			m[i] = rng.Float64()*2 - 1
		}
		return m
	}
	for i := 0; i < 50; i++ {
		a, b, c := randMat(), randMat(), randMat()
		ab_c := a.Mul(b).Mul(c)
		a_bc := a.Mul(b.Mul(c))
		for j := range ab_c {
			if math.Abs(ab_c[j]-a_bc[j]) > 1e-9 {
				t.Fatalf("Mul not associative at %d: %v vs %v", j, ab_c[j], a_bc[j])
			}
		}
	}
}

func TestLookAtMapsCenterToAxis(t *testing.T) {
	m := LookAt(V(0, 0, 5), V(0, 0, 0), V(0, 1, 0))
	v, _ := m.Apply(V(0, 0, 0))
	// Center maps onto the -z axis at distance 5.
	if !feq(v.X, 0, 1e-6) || !feq(v.Y, 0, 1e-6) || !feq(v.Z, -5, 1e-6) {
		t.Fatalf("LookAt center = %v", v)
	}
}

func TestPerspectiveDepthOrdering(t *testing.T) {
	cam := DefaultCamera()
	m := cam.Matrix(100, 100)
	near, _ := m.Apply(V(0.5, 0.5, 0.5))
	far, _ := m.Apply(cam.Eye.Add(cam.ViewDir().Scale(5)))
	if near.Z >= far.Z {
		t.Fatalf("nearer point should have smaller depth: %v vs %v", near.Z, far.Z)
	}
}

func TestCameraMatrixCentersImage(t *testing.T) {
	cam := DefaultCamera()
	for _, size := range []int{64, 512} {
		m := cam.Matrix(size, size)
		v, w := m.Apply(cam.Center)
		if w <= 0 {
			t.Fatal("center behind camera")
		}
		mid := float32(size) / 2
		if !feq(v.X, mid, 0.5) || !feq(v.Y, mid, 0.5) {
			t.Fatalf("center maps to (%v,%v), want (%v,%v)", v.X, v.Y, mid, mid)
		}
	}
}

func TestViewportCorners(t *testing.T) {
	vp := Viewport(200, 100)
	tl, _ := vp.Apply(V(-1, 1, 0))
	br, _ := vp.Apply(V(1, -1, 0))
	if !feq(tl.X, 0, 1e-5) || !feq(tl.Y, 0, 1e-5) {
		t.Fatalf("top-left = %v", tl)
	}
	if !feq(br.X, 200, 1e-4) || !feq(br.Y, 100, 1e-4) {
		t.Fatalf("bottom-right = %v", br)
	}
}

func TestBehindCameraHasNegativeW(t *testing.T) {
	cam := DefaultCamera()
	m := cam.Matrix(64, 64)
	behind := cam.Eye.Sub(cam.ViewDir().Scale(3))
	_, w := m.Apply(behind)
	if w >= 0 {
		t.Fatalf("point behind camera got w=%v", w)
	}
}

func TestMeshExpandsByIndex(t *testing.T) {
	m := Mesh{
		P:   []Vec3{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)},
		N:   []Vec3{V(0, 0, 1), V(0, 1, 0), V(1, 0, 0), V(0, 0, -1)},
		Idx: []uint32{0, 1, 2, 2, 1, 3},
	}
	if m.Triangles() != 2 {
		t.Fatalf("Triangles = %d", m.Triangles())
	}
	want := Triangle{P: [3]Vec3{m.P[2], m.P[1], m.P[3]}, N: [3]Vec3{m.N[2], m.N[1], m.N[3]}}
	if got := m.Triangle(1); got != want {
		t.Fatalf("Triangle(1) = %v, want %v", got, want)
	}
	m.Reset()
	if len(m.P)+len(m.N)+len(m.Idx) != 0 || cap(m.P) != 4 {
		t.Fatalf("Reset left %d/%d/%d elements, capacity %d", len(m.P), len(m.N), len(m.Idx), cap(m.P))
	}
}
