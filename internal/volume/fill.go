package volume

import (
	"math"
	"runtime"
	"slices"
)

// FillBlock samples a field into an existing (possibly block-extracted)
// volume at timestep t, honoring the volume's global position so block-wise
// sampling agrees exactly with whole-grid sampling: sample (x, y, z) gets
// the float32 bits f.Sample returns at float64(v.PosOf(x, y, z)) and t. A
// *PlumeField, and a *SkewedField over one, fill the block from per-axis
// tables under that same contract; any other field is sampled one sample
// at a time.
func FillBlock(f Field, v *Volume, t float64) {
	if bf, ok := f.(blockFiller); ok {
		var sc *fillScratch
		select {
		case sc = <-idleFills:
		default:
			sc = new(fillScratch)
		}
		sc.xs, sc.ys, sc.zs = sc.xs[:0], sc.ys[:0], sc.zs[:0]
		for i := range v.NX {
			x, _, _ := v.PosOf(i, 0, 0)
			sc.xs = append(sc.xs, float64(x))
		}
		for i := range v.NY {
			_, y, _ := v.PosOf(0, i, 0)
			sc.ys = append(sc.ys, float64(y))
		}
		for i := range v.NZ {
			_, _, z := v.PosOf(0, 0, i)
			sc.zs = append(sc.zs, float64(z))
		}
		done := bf.fillBlock(v, sc, t)
		select {
		case idleFills <- sc:
		default:
		}
		if done {
			return
		}
	}
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				fx, fy, fz := v.PosOf(x, y, z)
				v.Set(x, y, z, f.Sample(float64(fx), float64(fy), float64(fz), t))
			}
		}
	}
}

// blockFiller is a Field that fills a whole block at once.
type blockFiller interface {
	// fillBlock sets every sample of v at timestep t to the bits Sample
	// returns at sc's axis coordinates, or returns false having set none.
	// It may overwrite sc.
	fillBlock(v *Volume, sc *fillScratch, t float64) bool
}

// fillScratch holds one fill's tables: the axis coordinates, each plume's
// factor per axis sample (sample-major) and its weight amp·ey·ez per row.
type fillScratch struct{ xs, ys, zs, ex, ey, ez, w []float64 }

// idleFills recycles scratch as mcubes' idle walkers do: FieldSource fills
// every chunk of every frame, and a steady stream of fills allocates nothing.
// It holds one scratch per P, as fills are CPU-bound.
var idleFills = make(chan *fillScratch, runtime.GOMAXPROCS(0))

// fillBlock fills v as v = b + Σ amp·(ex·ey·ez), summed in Sample's plume
// order, and keeps float32(v) only where the guard proves it is Sample's.
//
// The bound. Let u = 2⁻⁵³. For one sample and plume, let a be the exact
// exponent (dx²+dy²+dz²)/k over the float64 offsets and divisor k that
// fill and Sample share (at, base), R = amp·e⁻ᵃ the exact term, and b the
// shared background. Sample's exponent is within 4u·a of a (each square
// meets at most three roundings, then the division), fill's per-axis ones
// within 2u of theirs; we allow math.Exp 4 ulp (8u; under 1.6 ulp measured
// on amd64), and each product rounds once. So Sample's term is within
// (4a+9)u·R of R and fill's within (2a+27)u·R: they differ by at most
// (6a+36)u·R to first order, since a·4u < 2⁻⁴⁰ wherever R ≥ 2⁻¹⁰⁰⁰amp,
// where no factor is subnormal (amp ≥ 0.6). Below that, both terms are
// under 2⁻⁹⁸⁰amp. As a·e⁻ᵃ ≤ 1/e, all terms differ by at most u(4A + 37ΣR)
// for A the sum of amplitudes. Adding n nonnegative terms onto b errs by
// at most nu(|b| + Σ terms) on each side, and |b| + ΣR ≤ |v| + 2|b| to
// first order, so |v − Sample's float64| ≤ u(4A + (2n+37)(|v| + 2|b|)).
// e takes 2n+40, so the guard's own roundings, at most u(|v|+e) in
// fl(v∓e), keep fl(v−e) and fl(v+e) around Sample's float64; float32
// rounding is monotone, so when both round to float32(v), so does Sample's
// float64. Otherwise — v near a float32 midpoint, or a NaN or ±Inf
// anywhere — the sample is Sample's own.
func (f *PlumeField) fillBlock(v *Volume, sc *fillScratch, t float64) bool {
	n, nx, ny, nz := len(f.plumes), len(sc.xs), len(sc.ys), len(sc.zs)
	sc.ex, sc.ey, sc.ez, sc.w = resize(sc.ex, nx*n), resize(sc.ey, ny*n), resize(sc.ez, nz*n), resize(sc.w, n)
	ex, ey, ez, w := sc.ex, sc.ey, sc.ez, sc.w
	amps := 0.0
	for i := range f.plumes {
		p := &f.plumes[i]
		cx, cy, cz, k := p.at(t)
		factors(ex[i:], n, sc.xs, cx, k)
		factors(ey[i:], n, sc.ys, cy, k)
		factors(ez[i:], n, sc.zs, cz, k)
		amps += p.amp
	}
	const u = 0x1p-53
	kv := u * float64(2*n+40)
	for z, fz := range sc.zs {
		b := f.base(fz)
		e0 := u*4*amps + kv*2*math.Abs(b)
		ezz := ez[z*n:][:n]
		for y, fy := range sc.ys {
			eyy := ey[y*n:][:n]
			for i := range w {
				w[i] = f.plumes[i].amp * eyy[i] * ezz[i]
			}
			out := v.Data[(z*ny+y)*nx:][:nx]
			for x := range out {
				s := b
				for i, e := range ex[x*n:][:len(w)] {
					s += e * w[i]
				}
				r, ok := settle(s, e0+kv*math.Abs(s))
				if !ok {
					r = f.Sample(sc.xs[x], fy, fz, t)
				}
				out[x] = r
			}
		}
	}
	return true
}

// fillBlock maps the x and y axes to x² and y², as Sample does, and fills
// from the inner field's tables when it has them.
func (s *SkewedField) fillBlock(v *Volume, sc *fillScratch, t float64) bool {
	in, ok := s.Inner.(blockFiller)
	if !ok {
		return false
	}
	for i, x := range sc.xs {
		sc.xs[i] = x * x
	}
	for i, y := range sc.ys {
		sc.ys[i] = y * y
	}
	return in.fillBlock(v, sc, t)
}

// factors sets dst[j*n] to one plume's Gaussian factor exp(−(axis[j]−c)²/k)
// at each axis sample j.
func factors(dst []float64, n int, axis []float64, c, k float64) {
	for j, a := range axis {
		d := a - c
		dst[j*n] = math.Exp(-(d * d) / k)
	}
}

// settle returns float32(v), and whether every float64 within e of v
// rounds to it; for a NaN v or e it returns false.
func settle(v, e float64) (float32, bool) {
	r := float32(v)
	return r, float32(v-e) == r && float32(v+e) == r
}

// resize returns s with length n, reusing its storage when it suffices.
func resize(s []float64, n int) []float64 { return slices.Grow(s[:0], n)[:n] }
