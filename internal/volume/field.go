package volume

import (
	"math"
	"math/rand"
)

// Field is a continuous scalar field over the unit cube and time, sampled
// to grids of any resolution. It replaces the stored ParSSim outputs: one
// Field plays the role of one chemical species' concentration.
type Field interface {
	// Sample evaluates the field at normalized position (x,y,z) in [0,1]
	// and timestep t (continuous; integer values correspond to stored
	// timesteps).
	Sample(x, y, z, t float64) float32
}

// plume is one advected Gaussian concentration blob.
type plume struct {
	cx, cy, cz float64 // initial center
	vx, vy, vz float64 // drift per timestep
	sigma      float64
	amp        float64
	growth     float64 // sigma growth per timestep (dispersion)
}

// PlumeField models the concentration of a chemical species in a reactive
// transport simulation: several Gaussian plumes drifting with the flow
// field and dispersing over time, over a mild background gradient. It is
// deterministic for a given seed. Each plume's Gaussian factors by axis,
// so FillBlock fills a block with one math.Exp per plume and axis sample
// instead of one per plume and sample, every sample still Sample's bits
// (fill.go).
type PlumeField struct {
	plumes     []plume
	background float64
}

// NewPlumeField creates a field with n plumes drawn from the given seed.
func NewPlumeField(seed int64, n int) *PlumeField {
	rng := rand.New(rand.NewSource(seed))
	f := &PlumeField{background: 0.05}
	for i := 0; i < n; i++ {
		f.plumes = append(f.plumes, plume{
			cx:     0.15 + 0.7*rng.Float64(),
			cy:     0.15 + 0.7*rng.Float64(),
			cz:     0.15 + 0.7*rng.Float64(),
			vx:     (rng.Float64() - 0.5) * 0.04,
			vy:     (rng.Float64() - 0.5) * 0.04,
			vz:     (rng.Float64() - 0.5) * 0.04,
			sigma:  0.06 + 0.10*rng.Float64(),
			amp:    0.6 + 0.5*rng.Float64(),
			growth: 0.002 + 0.004*rng.Float64(),
		})
	}
	return f
}

// Sample implements Field. It is the reference FillBlock's block fill
// reproduces bit for bit, and the fill's fallback for a sample it cannot
// settle.
func (f *PlumeField) Sample(x, y, z, t float64) float32 {
	v := f.base(z)
	for i := range f.plumes {
		p := &f.plumes[i]
		cx, cy, cz, k := p.at(t)
		dx, dy, dz := x-cx, y-cy, z-cz
		d2 := dx*dx + dy*dy + dz*dz
		v += p.amp * math.Exp(-d2/k)
	}
	return float32(v)
}

// base is the mild vertical background gradient at height z.
func (f *PlumeField) base(z float64) float64 { return f.background * (1 - z*0.5) }

// at returns p's centre at timestep t and its exponent's divisor 2s², for
// its sigma s at t.
func (p *plume) at(t float64) (cx, cy, cz, k float64) {
	s := p.sigma + p.growth*t
	return p.cx + p.vx*t, p.cy + p.vy*t, p.cz + p.vz*t, 2 * s * s
}

// SkewedField wraps a field so most of its interesting structure sits in
// one corner of the domain, for data-skew experiments.
type SkewedField struct{ Inner Field }

// Sample implements Field.
func (s *SkewedField) Sample(x, y, z, t float64) float32 {
	// Compress the interesting region toward the origin.
	return s.Inner.Sample(x*x, y*y, z, t)
}

// Rasterize samples a field onto a fresh (nx,ny,nz) grid at timestep t.
func Rasterize(f Field, nx, ny, nz int, t float64) *Volume {
	v := New(nx, ny, nz)
	FillBlock(f, v, t)
	return v
}

// NewBlockVolume allocates an empty volume shaped like block b.
func NewBlockVolume(b Block) *Volume {
	v := New(b.NX, b.NY, b.NZ)
	v.Block = b
	return v
}

// spare holds volumes handed back by Recycle for Borrow. Like a sync.Pool it
// is safe for concurrent use; unlike one it survives garbage collections, so
// a steady stream of chunk reads allocates nothing. The bound caps what it
// pins, not what may be in flight — a full list drops the volume — and
// covers the chunks a pipeline holds at once (a stream queue of 8 plus one
// per reading copy).
var spare = make(chan *Volume, 16)

// Borrow returns a volume shaped like block b whose samples are
// unspecified, so the caller must overwrite every one. It reuses the first
// recycled volume when that is large enough and otherwise allocates exactly
// b's size.
func Borrow(b Block) *Volume {
	n := b.Samples()
	select {
	case v := <-spare:
		if cap(v.Data) >= n {
			v.NX, v.NY, v.NZ, v.Block = b.NX, b.NY, b.NZ, b
			v.Data = v.Data[:n]
			return v
		}
	default:
	}
	return NewBlockVolume(b)
}

// Recycle hands v back to Borrow. The caller must hold the only reference:
// in the isosurface pipeline, that is the extract stage once it has walked a
// chunk the read stage wrote.
func Recycle(v *Volume) {
	select {
	case spare <- v:
	default:
	}
}
