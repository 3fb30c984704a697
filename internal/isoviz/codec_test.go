package isoviz

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"datacutter/internal/geom"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// clonePayload deep-copies a payload. Append is the sender's last use of a
// payload and recycles its storage — a decode may draw it straight back —
// so a round trip compares against a copy taken before Append.
func clonePayload(v any) any {
	switch p := v.(type) {
	case TriBatch:
		return TriBatch{geom.Mesh{P: slices.Clone(p.P), N: slices.Clone(p.N), Idx: slices.Clone(p.Idx)}}
	case PixBatch:
		return PixBatch{Pixels: slices.Clone(p.Pixels)}
	case ZChunk:
		return ZChunk{Off: p.Off, Depth: slices.Clone(p.Depth), Color: slices.Clone(p.Color)}
	case VoxelBlock:
		v := *p.V
		v.Data = slices.Clone(v.Data)
		return VoxelBlock{V: &v}
	}
	panic(fmt.Sprintf("clonePayload: %T", v))
}

func TestTriBatchCodecRoundTrip(t *testing.T) {
	// Two triangles sharing the edge 1-2, and a triangle on a NaN vertex.
	nan := float32(math.NaN())
	in := TriBatch{geom.Mesh{
		P:   []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}, {X: 7, Y: 8, Z: 9}, {X: -1, Y: 0.5, Z: 0.125}, {X: nan}},
		N:   []geom.Vec3{{Z: 1}, {Y: 1}, {X: 1}, {Z: -1}, {Y: nan}},
		Idx: []uint32{0, 1, 2, 2, 1, 3, 4, 0, 3},
	}}
	want, err := triBatchCodec{}.Append(nil, clonePayload(in))
	if err != nil {
		t.Fatal(err)
	}
	if n := 8 + 5*24 + 9*4; len(want) != n {
		t.Fatalf("encoded %d bytes, want %d", len(want), n)
	}
	body := slices.Clone(want)
	out, err := triBatchCodec{}.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := (triBatchCodec{}).Append(nil, out); !bytes.Equal(got, want) {
		t.Fatalf("round trip mangled:\n got  %x\n want %x", got, want)
	}
	if b := out.(TriBatch); b.Bytes() != 3*geom.TriangleBytes || b.Triangles() != 3 {
		t.Fatalf("decoded batch counts %d triangles, %d bytes", b.Triangles(), b.Bytes())
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := (triBatchCodec{}).Decode(body[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
	if _, err := (triBatchCodec{}).Append(nil, TriBatch{geom.Mesh{P: make([]geom.Vec3, 2), N: make([]geom.Vec3, 1)}}); err == nil {
		t.Fatal("encoded 1 normal for 2 positions")
	}
	if _, err := (triBatchCodec{}).Append(nil, TriBatch{geom.Mesh{P: make([]geom.Vec3, 1), N: make([]geom.Vec3, 1), Idx: []uint32{0, 0}}}); err == nil {
		t.Fatal("encoded 2 indices")
	}
}

// The TriBatch wire layout: counts, positions, normals, indices; pin it.
func TestTriBatchCodecGoldenBytes(t *testing.T) {
	in := TriBatch{geom.Mesh{
		P:   []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: -1}},
		N:   []geom.Vec3{{Z: 1}, {Y: -2}},
		Idx: []uint32{1, 0, 1},
	}}
	body, err := triBatchCodec{}.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	const want = "02000000" + "03000000" + // nverts, nidx
		"0000803f" + "00000040" + "00004040" + "000080bf" + "00000000" + "00000000" + // positions
		"00000000" + "00000000" + "0000803f" + "00000000" + "000000c0" + "00000000" + // normals
		"01000000" + "00000000" + "01000000" // indices
	if got := hex.EncodeToString(body); got != want {
		t.Fatalf("wire bytes changed:\n got  %s\n want %s", got, want)
	}
}

// triBody encodes a TriBatch body from raw counts and words, whether or
// not they agree.
func triBody(nverts, nidx uint32, words ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, nverts)
	b = binary.LittleEndian.AppendUint32(b, nidx)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// hostileTriBodies are TriBatch bodies a peer must not get past the
// decoder: Ra would index out of range, or the decoder allocate for counts
// the body does not hold.
func hostileTriBodies() map[string][]byte {
	vert := make([]uint32, 6) // one vertex: position and normal
	return map[string][]byte{
		"index past the vertices":  triBody(1, 3, append(vert, 0, 1, 0)...),
		"index 2^32-1":             triBody(1, 3, append(vert, 0, 0, math.MaxUint32)...),
		"indices not whole":        triBody(1, 2, append(vert, 0, 0)...),
		"one index":                triBody(1, 1, append(vert, 0)...),
		"header counts one more":   triBody(2, 3, append(vert, 0, 0, 0)...),
		"header counts one fewer":  triBody(1, 0, append(vert, 0, 0, 0)...),
		"2^32-1 vertices":          triBody(math.MaxUint32, 3, append(vert, 0, 0, 0)...),
		"2^32-3 indices":           triBody(1, math.MaxUint32-2, append(vert, 0, 0, 0)...),
		"both counts near 2^32":    triBody(math.MaxUint32, math.MaxUint32, vert...),
		"counts that wrap 32 bits": triBody(1<<30, 1<<30, append(vert, 0, 0, 0)...),
	}
}

// Each hostile body is a decode error, and a count the body does not hold
// fails the size check before anything is allocated for it.
func TestTriBatchCodecRejectsHostileBodies(t *testing.T) {
	for name, body := range hostileTriBodies() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := triBatchCodec{}.Decode(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: allocated %d bytes to reject %d", name, n, len(body))
		}
	}
}

func TestPixBatchCodecRoundTrip(t *testing.T) {
	in := PixBatch{Pixels: []render.Pixel{
		{X: 10, Y: 20, Depth: 0.5, C: render.RGB{R: 1, G: 2, B: 3}},
		{X: -1, Y: 1 << 20, Depth: -2.25, C: render.RGB{R: 255, G: 0, B: 128}},
	}}
	want := clonePayload(in)
	body, err := pixBatchCodec{}.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 2*render.PixelBytes; len(body) != want {
		t.Fatalf("encoded %d bytes, want %d", len(body), want)
	}
	out, err := pixBatchCodec{}.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip mangled:\n got  %+v\n want %+v", out, want)
	}
	if _, err := (pixBatchCodec{}).Decode(body[:len(body)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// The PixBatch wire layout is field-wise and fixed (render.Pixel has
// interior padding in memory, so it cannot change shape silently); pin it.
func TestPixBatchCodecGoldenBytes(t *testing.T) {
	in := PixBatch{Pixels: []render.Pixel{
		{X: 1, Y: 2, Depth: 1.0, C: render.RGB{R: 0xAA, G: 0xBB, B: 0xCC}},
	}}
	body, err := pixBatchCodec{}.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	const want = "01000000" + // count
		"01000000" + "02000000" + "0000803f" + "aabbcc"
	if got := hex.EncodeToString(body); got != want {
		t.Fatalf("wire bytes changed:\n got  %s\n want %s", got, want)
	}
}

func TestZChunkCodecRoundTrip(t *testing.T) {
	in := ZChunk{
		Off:   4096,
		Depth: []float32{1, 0.5, -0.25, 3e8},
		Color: []render.RGB{{R: 1, G: 2, B: 3}, {R: 4, G: 5, B: 6}, {R: 7, G: 8, B: 9}, {R: 255}},
	}
	want := clonePayload(in)
	body, err := zChunkCodec{}.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := zChunkCodec{}.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip mangled:\n got  %+v\n want %+v", out, want)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := (zChunkCodec{}).Decode(body[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
}

// A ZChunk carries one color per depth. A body whose counts differ — which
// the merge filter would index out of range — is a decode error, and such a
// chunk is refused on the way out too.
func TestZChunkCodecRejectsMismatchedPlanes(t *testing.T) {
	body := binary.LittleEndian.AppendUint32(nil, 0) // off
	body = binary.LittleEndian.AppendUint32(body, 4) // 4 depths
	body = append(body, make([]byte, 16)...)
	body = binary.LittleEndian.AppendUint32(body, 2) // 2 colors
	body = append(body, make([]byte, 6)...)
	if _, err := (zChunkCodec{}).Decode(body); err == nil {
		t.Fatal("decoded 2 colors for 4 depths")
	}
	if _, err := (zChunkCodec{}).Append(nil, ZChunk{Depth: make([]float32, 4), Color: make([]render.RGB, 2)}); err == nil {
		t.Fatal("encoded 2 colors for 4 depths")
	}
}

// A decoded ZChunk keeps the ZChunk invariant: a pixel behind the cleared
// pixel — which the merge filter would adopt into the image — is a typed
// decode error, while every pixel at or in front of it decodes.
func TestZChunkDecoderRejectsPixelsBehindClear(t *testing.T) {
	bg, inf := render.Background, render.InfDepth
	for name, px := range map[string]struct {
		depth float32
		color render.RGB
		ok    bool
	}{
		"NaN depth":                  {float32(math.NaN()), bg, false},
		"+Inf depth":                 {float32(math.Inf(1)), bg, false},
		"one ulp past InfDepth":      {math.Nextafter32(inf, float32(math.Inf(1))), render.RGB{}, false},
		"InfDepth, color after bg":   {inf, render.RGB{R: bg.R, G: bg.G, B: bg.B + 1}, false},
		"InfDepth, white":            {inf, render.RGB{R: 255, G: 255, B: 255}, false},
		"the cleared pixel":          {inf, bg, true},
		"InfDepth, color before bg":  {inf, render.RGB{R: bg.R, G: bg.G, B: bg.B - 1}, true},
		"one ulp before InfDepth":    {math.Nextafter32(inf, 0), render.RGB{R: 255}, true},
		"-Inf depth":                 {float32(math.Inf(-1)), render.RGB{R: 255}, true},
		"negative zero":              {float32(math.Copysign(0, -1)), bg, true},
		"the largest finite float32": {math.MaxFloat32, bg, false},
	} {
		in := ZChunk{Off: 3, Depth: []float32{0, px.depth, 1}, Color: []render.RGB{bg, px.color, bg}}
		body, err := zChunkCodec{}.Append(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		_, err = zChunkCodec{}.Decode(body)
		if px.ok && err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !px.ok && !errors.Is(err, ErrZChunkBehindClear) {
			t.Errorf("%s: decode error %v, want ErrZChunkBehindClear", name, err)
		}
	}
}

// voxelBody is a VoxelBlock body: the ten header words, then n samples.
func voxelBody(n int, header ...uint32) []byte {
	var b []byte
	for _, x := range header {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(i)/8))
	}
	return b
}

// voxelBodies are a valid 2×3×1 block at (1,0,2) of a 4×3×3 grid and the
// hostile bodies the decoder must reject before allocating.
var voxelBodies = []struct {
	name string
	body []byte
	ok   bool
}{
	{"valid", voxelBody(6, 1, 0, 2, 2, 3, 1, 4, 3, 3, 7), true},
	{"past its grid", voxelBody(6, 3, 0, 2, 2, 3, 1, 4, 3, 3, 7), false},
	{"zero extent", voxelBody(0, 1, 0, 2, 2, 0, 1, 4, 3, 3, 7), false},
	// 2^22 · 2^22 · 2^20 wraps to 0 samples in a uint64.
	{"extents overflow", voxelBody(0, 0, 0, 0, 1<<22, 1<<22, 1<<20, 1<<22, 1<<22, 1<<20, 0), false},
	// 2^62 samples are 0 bytes, mod 2^64.
	{"bytes overflow", voxelBody(0, 0, 0, 0, 1<<31, 1<<31, 1, 1<<31, 1<<31, 1, 0), false},
	{"one sample short", voxelBody(5, 1, 0, 2, 2, 3, 1, 4, 3, 3, 7), false},
	{"header short", voxelBody(0, 1, 0, 2, 2, 3, 1, 4, 3, 3), false},
}

func TestVoxelBlockCodecBodies(t *testing.T) {
	for _, tc := range voxelBodies {
		v, err := voxelBlockCodec{}.Decode(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		want := volume.Block{X0: 1, Y0: 0, Z0: 2, NX: 2, NY: 3, NZ: 1, GX: 4, GY: 3, GZ: 3, Index: 7}
		if vb := v.(VoxelBlock); vb.V.Block != want || vb.V.NX != 2 || vb.V.NY != 3 || vb.V.NZ != 1 || vb.V.Data[5] != 5.0/8 {
			t.Fatalf("%s: decoded %+v", tc.name, *vb.V)
		}
		again, err := voxelBlockCodec{}.Append(nil, v)
		if err != nil || !bytes.Equal(again, tc.body) {
			t.Fatalf("%s: re-encodes as %x, %v; want %x", tc.name, again, err, tc.body)
		}
	}
}

// FuzzPayloadCodecs feeds arbitrary bytes — a peer's frame body — to each
// of the four decoders: none may panic, and a body one accepts must
// re-encode to exactly the same bytes. Append recycles what it encodes, so
// the value decoded back from those bytes — possibly into the recycled
// storage — must match a copy taken before Append. The codecs encode bit
// for bit (NaNs included, which DeepEqual would not match), so "match" is
// "re-encodes to the same bytes". Every TriBatch accepted indexes only its
// own vertices, every ZChunk accepted keeps the ZChunk invariant, and every
// VoxelBlock accepted lies inside its grid and holds its block's samples.
func FuzzPayloadCodecs(f *testing.F) {
	tri, _ := triBatchCodec{}.Append(nil, TriBatch{geom.Mesh{P: make([]geom.Vec3, 4), N: make([]geom.Vec3, 4), Idx: []uint32{0, 1, 2, 2, 1, 3}}})
	pix, _ := pixBatchCodec{}.Append(nil, PixBatch{Pixels: make([]render.Pixel, 3)})
	z, _ := zChunkCodec{}.Append(nil, ZChunk{Off: 9, Depth: make([]float32, 2), Color: make([]render.RGB, 2)})
	nan, _ := zChunkCodec{}.Append(nil, ZChunk{Depth: []float32{float32(math.NaN())}, Color: []render.RGB{render.Background}})
	for _, b := range [][]byte{tri, pix, z, nan, nil, {1, 0, 0, 0}, {0, 0, 0, 0, 4, 0, 0, 0}} {
		f.Add(b)
	}
	for _, b := range hostileTriBodies() {
		f.Add(b)
	}
	for _, tc := range voxelBodies {
		f.Add(tc.body)
	}
	codecs := []interface {
		Append([]byte, any) ([]byte, error)
		Decode([]byte) (any, error)
	}{triBatchCodec{}, pixBatchCodec{}, zChunkCodec{}, voxelBlockCodec{}}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, c := range codecs {
			v, err := c.Decode(body)
			if err != nil {
				continue
			}
			if b, ok := v.(TriBatch); ok {
				for i, x := range b.Idx {
					if int(x) >= len(b.P) || len(b.N) != len(b.P) || len(b.Idx)%3 != 0 {
						t.Fatalf("accepted a TriBatch with index %d = %d of %d vertices (%d normals, %d indices)",
							i, x, len(b.P), len(b.N), len(b.Idx))
					}
				}
			}
			if z, ok := v.(ZChunk); ok {
				for i, d := range z.Depth {
					if !(d < render.InfDepth || d == render.InfDepth && !render.Background.Less(z.Color[i])) {
						t.Fatalf("accepted a ZChunk with pixel %d (%v, %v) behind the cleared pixel", i, d, z.Color[i])
					}
				}
			}
			if vb, ok := v.(VoxelBlock); ok {
				k := vb.V.Block
				if k.NX < 1 || k.NY < 1 || k.NZ < 1 || k.X0+k.NX > k.GX || k.Y0+k.NY > k.GY || k.Z0+k.NZ > k.GZ ||
					len(vb.V.Data) != k.Samples() || vb.V.NX != k.NX || vb.V.NY != k.NY || vb.V.NZ != k.NZ {
					t.Fatalf("accepted a VoxelBlock %v in grid %dx%dx%d with %d samples", k, k.GX, k.GY, k.GZ, len(vb.V.Data))
				}
			}
			want := clonePayload(v)
			again, err := c.Append(nil, v)
			if err != nil {
				t.Fatalf("%T: decoded %x but cannot re-encode it: %v", c, body, err)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("%T: %x re-encodes as %x", c, body, again)
			}
			back, err := c.Decode(again)
			if err != nil {
				t.Fatalf("%T: %x no longer decodes: %v", c, again, err)
			}
			for _, p := range []any{back, want} {
				if b, err := c.Append(nil, p); err != nil || !bytes.Equal(b, body) {
					t.Fatalf("%T: round trip through recycled storage: %x, %v; want %x", c, b, err, body)
				}
			}
		}
	})
}

func TestCodecsRejectWrongType(t *testing.T) {
	if _, err := (triBatchCodec{}).Append(nil, PixBatch{}); err == nil {
		t.Fatal("TriBatch codec accepted PixBatch")
	}
	if _, err := (pixBatchCodec{}).Append(nil, ZChunk{}); err == nil {
		t.Fatal("PixBatch codec accepted ZChunk")
	}
	if _, err := (zChunkCodec{}).Append(nil, TriBatch{}); err == nil {
		t.Fatal("ZChunk codec accepted TriBatch")
	}
	if _, err := (voxelBlockCodec{}).Append(nil, ZChunk{}); err == nil {
		t.Fatal("VoxelBlock codec accepted ZChunk")
	}
}

func TestEmptyBatches(t *testing.T) {
	for _, tc := range []struct {
		name  string
		enc   func() ([]byte, error)
		check func(any) bool
		dec   func([]byte) (any, error)
	}{
		{
			name:  "tri",
			enc:   func() ([]byte, error) { return triBatchCodec{}.Append(nil, TriBatch{}) },
			check: func(v any) bool { b := v.(TriBatch); return len(b.P) == 0 && len(b.N) == 0 && len(b.Idx) == 0 },
			dec:   triBatchCodec{}.Decode,
		},
		{
			name:  "pix",
			enc:   func() ([]byte, error) { return pixBatchCodec{}.Append(nil, PixBatch{}) },
			check: func(v any) bool { return len(v.(PixBatch).Pixels) == 0 },
			dec:   pixBatchCodec{}.Decode,
		},
		{
			name: "z",
			enc:  func() ([]byte, error) { return zChunkCodec{}.Append(nil, ZChunk{Off: 7}) },
			check: func(v any) bool {
				z := v.(ZChunk)
				return z.Off == 7 && len(z.Depth) == 0 && len(z.Color) == 0
			},
			dec: zChunkCodec{}.Decode,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := tc.enc()
			if err != nil {
				t.Fatal(err)
			}
			v, err := tc.dec(body)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(v) {
				t.Fatalf("empty batch mangled: %+v", v)
			}
		})
	}
}
