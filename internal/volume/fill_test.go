package volume

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkFill fails t unless FillBlock fills block b with exactly the bits of
// a per-sample Sample loop.
func checkFill(t *testing.T, f Field, b Block, tm float64) {
	t.Helper()
	got := NewBlockVolume(b)
	FillBlock(f, got, tm)
	for z := 0; z < b.NZ; z++ {
		for y := 0; y < b.NY; y++ {
			for x := 0; x < b.NX; x++ {
				fx, fy, fz := got.PosOf(x, y, z)
				want := f.Sample(float64(fx), float64(fy), float64(fz), tm)
				if g := got.At(x, y, z); math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("%T block %v t=%v: sample (%d,%d,%d) = %v (%#x), Sample gives %v (%#x)",
						f, b, tm, x, y, z, g, math.Float32bits(g), want, math.Float32bits(want))
				}
			}
		}
	}
}

// FillBlock's block fill is Sample's bits on blocks touching every grid
// border and filling whole grids, for plain and skewed fields, over
// integer, fractional, negative, huge and non-finite timesteps.
func TestFillBlockMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	times := []float64{0, 1, 3, 0.5, 2.75, -1.5, -7, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	shapes := [][3]int{{1, 2, 129}, {129, 1, 2}, {2, 129, 1}, {1, 1, 1}, {2, 2, 2}, {17, 9, 5}}
	for _, n := range []int{0, 1, 5, 8} {
		for range 2 {
			pf := NewPlumeField(rng.Int63(), n)
			for _, f := range []Field{pf, &SkewedField{Inner: pf}} {
				for _, s := range shapes {
					var blocks []Block
					for corner := range 8 { // low or high end of a grid 3 wider on each axis
						at := func(axis int) int { return 3 * (corner >> axis & 1) }
						blocks = append(blocks, Block{X0: at(0), Y0: at(1), Z0: at(2), NX: s[0], NY: s[1], NZ: s[2],
							GX: s[0] + 3, GY: s[1] + 3, GZ: s[2] + 3})
					}
					blocks = append(blocks,
						Block{NX: s[0], NY: s[1], NZ: s[2], GX: s[0], GY: s[1], GZ: s[2]}, // the whole grid
						Block{NX: s[0], NY: s[1], NZ: s[2]})                               // a plain volume
					for _, b := range blocks {
						for _, tm := range append(times, 10*rng.Float64()) {
							checkFill(t, f, b, tm)
						}
					}
				}
			}
		}
	}
}

// A field FillBlock cannot fill from tables, bare or under a skew, is
// sampled one sample at a time.
func TestFillBlockOtherFields(t *testing.T) {
	b := Block{X0: 1, Y0: 2, NX: 5, NY: 4, NZ: 3, GX: 9, GY: 9, GZ: 3}
	for _, f := range []Field{constField(0.25), &SkewedField{Inner: constField(0.5)},
		&SkewedField{Inner: &SkewedField{Inner: NewPlumeField(3, 2)}}} {
		checkFill(t, f, b, 1.5)
	}
}

type constField float32

func (c constField) Sample(x, y, z, t float64) float32 { return float32(c) + float32(x) }

// The guard settles no v at a float32 rounding midpoint or strictly within
// e of one, whichever neighbour the tie rounds to, and nothing non-finite.
// The random tests above almost never meet a midpoint, so they cannot tell
// a guard that always settles from this one.
func TestSettleGuard(t *testing.T) {
	for _, r := range []float32{0.05, 0.15, 0.9, 1, math.Nextafter32(1, 2), 3.25, 1e-30} {
		lo, hi := float64(r), float64(math.Nextafter32(r, math.MaxFloat32))
		mid := (lo + hi) / 2 // exact in float64
		e := 0x1p-53 * 50 * mid
		for _, v := range []float64{mid, mid - e/2, mid + e/2, math.Nextafter(mid-e, mid), math.Nextafter(mid+e, mid)} {
			if got, ok := settle(v, e); ok {
				t.Errorf("settle(%v, %v) = %v, true; v is within e of the midpoint of %v and %v", v, e, got, lo, hi)
			}
		}
		for _, v := range []float64{mid - e, mid + e} { // exactly e away: only the tie's own rounding
			if got, ok := settle(v, e); ok && got != float32(mid) {
				t.Errorf("settle(%v, %v) = %v, true; the midpoint rounds to %v", v, e, got, float32(mid))
			}
		}
		if got, ok := settle(lo, e); !ok || got != r {
			t.Errorf("settle(%v, %v) = %v, %v; want %v, true", lo, e, got, ok, r)
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range [][2]float64{{nan, 1e-15}, {0.5, nan}, {inf, inf}, {-inf, inf}, {0.5, inf}} {
		if got, ok := settle(c[0], c[1]); ok {
			t.Errorf("settle(%v, %v) = %v, true", c[0], c[1], got)
		}
	}
}

// Concurrent fills, each borrowing its own scratch, match Sample (run it
// with -race).
func TestConcurrentFillsMatchSample(t *testing.T) {
	f := &SkewedField{Inner: NewPlumeField(11, 5)}
	blocks := Partition(33, 33, 33, 4, 4, 3)
	got := make([]*Volume, len(blocks))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(blocks); i += 4 {
				got[i] = NewBlockVolume(blocks[i])
				FillBlock(f, got[i], 1.25)
			}
		}()
	}
	wg.Wait()
	for i, b := range blocks {
		want := NewBlockVolume(b)
		for j := range want.Data {
			x, y, z := j%b.NX, j/b.NX%b.NY, j/(b.NX*b.NY)
			fx, fy, fz := want.PosOf(x, y, z)
			if g, w := got[i].Data[j], f.Sample(float64(fx), float64(fy), float64(fz), 1.25); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("block %v sample (%d,%d,%d) = %v, Sample gives %v", b, x, y, z, g, w)
			}
		}
	}
}

// A warm fill of one of the bench's blocks allocates nothing.
func TestFillBlockAllocatesNothing(t *testing.T) {
	f, v := NewPlumeField(2002, 5), NewBlockVolume(Partition(129, 129, 97, 8, 8, 6)[9])
	if a := testing.AllocsPerRun(10, func() { FillBlock(f, v, 2) }); a != 0 {
		t.Errorf("%v allocations per fill, want 0", a)
	}
}

// FuzzFillBlockMatchesSample checks FillBlock against the per-sample loop
// on a fuzzed plume field, block (1–24 samples a side, up to 15 more on
// each axis of its grid, anywhere in it), skew and bits of t.
func FuzzFillBlockMatchesSample(f *testing.F) {
	f.Add(int64(2002), uint8(5), uint8(16), uint8(16), uint8(16), uint8(0x80), uint8(0x88), uint8(0xff), false, math.Float64bits(2))
	f.Add(int64(7), uint8(8), uint8(0), uint8(1), uint8(23), uint8(0x3f), uint8(0), uint8(0x21), true, math.Float64bits(0.375))
	f.Add(int64(-1), uint8(1), uint8(4), uint8(4), uint8(4), uint8(0), uint8(0), uint8(0), false, math.Float64bits(math.NaN()))
	f.Add(int64(3), uint8(4), uint8(7), uint8(3), uint8(2), uint8(0x11), uint8(0x22), uint8(0x33), true, math.Float64bits(-1e300))
	f.Fuzz(func(t *testing.T, seed int64, plumes, nx, ny, nz, px, py, pz uint8, skewed bool, tbits uint64) {
		axis := func(n, p uint8) (origin, samples, grid int) {
			samples = 1 + int(n)%24
			grid = samples + int(p>>4)
			return int(p&15) % (grid - samples + 1), samples, grid
		}
		var b Block
		b.X0, b.NX, b.GX = axis(nx, px)
		b.Y0, b.NY, b.GY = axis(ny, py)
		b.Z0, b.NZ, b.GZ = axis(nz, pz)
		var fld Field = NewPlumeField(seed, int(plumes%9))
		if skewed {
			fld = &SkewedField{Inner: fld}
		}
		checkFill(t, fld, b, math.Float64frombits(tbits))
	})
}

// BenchmarkFillBlock fills the bench's chunks — its 129×129×97 grid in
// 8×8×6 blocks of 17³ samples, plume field seed 2002 with 5 plumes — one
// block per op, cycling over the blocks and four timesteps.
func BenchmarkFillBlock(b *testing.B) {
	f := NewPlumeField(2002, 5)
	var vols []*Volume
	for _, bl := range Partition(129, 129, 97, 8, 8, 6) {
		vols = append(vols, NewBlockVolume(bl))
	}
	FillBlock(f, vols[0], 0) // warm
	b.ReportAllocs()
	b.ResetTimer()
	samples := 0
	for i := 0; i < b.N; i++ {
		v := vols[i%len(vols)]
		FillBlock(f, v, float64(i/len(vols)%4))
		samples += v.Samples()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}
