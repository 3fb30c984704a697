package isoviz

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// mergeRef is render.ZBuffer.MergeRange as it stood before the packed-colour
// compare, kept verbatim (renamed only) as the merge filter's oracle.
func mergeRef(z *render.ZBuffer, off int, depth []float32, colors []render.RGB) {
	for i := range depth {
		j := off + i
		if depth[i] < z.Depth[j] || (depth[i] == z.Depth[j] && colors[i].Less(z.Color[j])) {
			z.Depth[j] = depth[i]
			z.Color[j] = colors[i]
		}
	}
}

// zBits is a z-buffer's planes by exact representation.
func zBits(z *render.ZBuffer) []byte {
	b := make([]byte, 0, 7*len(z.Depth))
	for i, d := range z.Depth {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(d))
		b = append(b, z.Color[i].R, z.Color[i].G, z.Color[i].B)
	}
	return b
}

// payloadSender writes on out (StreamPixels when empty), in each unit of
// work, what its payloads function returns. The function runs once per
// unit of work: consumers keep or recycle what they are handed.
type payloadSender struct {
	core.BaseFilter
	out      string
	payloads func() []any
}

func (f *payloadSender) Process(ctx core.Ctx) error {
	for _, p := range f.payloads() {
		var size int
		switch p := p.(type) {
		case ZChunk:
			size = p.Bytes()
		case PixBatch:
			size = p.Bytes()
		case TriBatch:
			size = p.Bytes()
		}
		if err := ctx.Write(cmp.Or(f.out, StreamPixels), core.Buffer{Payload: p, Size: size}); err != nil {
			return err
		}
	}
	return nil
}

// runMerge runs P -> M on core over uows units of work of view and returns
// M's result.
func runMerge(view View, uows int, payloads func() []any) (*render.ZBuffer, *core.Stats, error) {
	g := core.NewGraph()
	g.AddFilter("P", func() core.Filter { return &payloadSender{payloads: payloads} })
	g.AddFilter("M", func() core.Filter { return &MergeFilter{Ins: []string{StreamPixels}} })
	g.Connect("P", "M", StreamPixels)
	work := make([]any, uows)
	for i := range work {
		work[i] = view
	}
	r, err := core.NewRunner(g, core.NewPlacement().Place("P", "h0", 1).Place("M", "h0", 1), core.Options{UOWs: work})
	if err != nil {
		return nil, nil, err
	}
	st, err := r.Run()
	if err != nil {
		return nil, st, err
	}
	m, err := MergeResult(r.Instances("M"))
	if err != nil {
		return nil, st, err
	}
	return m.Result(), st, nil
}

// raFrame is a frame as a z-buffer Ra copy builds one: a cleared buffer
// and random Puts, drawing depths from the values the merge order treats
// specially (ties at ±0 and InfDepth, NaN, ±Inf, just past InfDepth) and
// colors around Background.
func raFrame(rng *rand.Rand, w, h int) *render.ZBuffer {
	depths := []float32{0, float32(math.Copysign(0, -1)), 0.5, 1, render.InfDepth,
		float32(math.Inf(-1)), float32(math.NaN()), float32(math.Inf(1)),
		math.Nextafter32(render.InfDepth, float32(math.Inf(1)))}
	bg := render.Background
	colors := []render.RGB{bg, {R: bg.R, G: bg.G, B: bg.B - 1}, {R: bg.R, G: bg.G, B: bg.B + 1}, {R: 255}, {}}
	z := render.NewZBuffer(w, h)
	for k := rng.Intn(3 * w * h); k > 0; k-- {
		d := depths[rng.Intn(len(depths))]
		if rng.Intn(3) == 0 {
			d = rng.Float32()
		}
		c := colors[rng.Intn(len(colors))]
		if rng.Intn(3) == 0 {
			c = render.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		}
		z.Put(rng.Intn(w), rng.Intn(h), d, c)
	}
	return z
}

// ship is how a frame travels to M: 0 as one whole-frame ZChunk (which M
// adopts when it comes first), 1 as ZChunks of a random size, 2 as one
// PixBatch of its pixels that differ from the cleared pixel.
func ship(z *render.ZBuffer, mode, chunk int) []any {
	switch mode {
	case 0:
		return []any{ZChunk{Depth: slices.Clone(z.Depth), Color: slices.Clone(z.Color)}}
	case 1:
		var out []any
		for off := 0; off < len(z.Depth); off += chunk {
			end := min(off+chunk, len(z.Depth))
			out = append(out, ZChunk{Off: off, Depth: slices.Clone(z.Depth[off:end]), Color: slices.Clone(z.Color[off:end])})
		}
		return out
	}
	var px []render.Pixel
	for i, d := range z.Depth {
		if math.Float32bits(d) != math.Float32bits(render.InfDepth) || z.Color[i] != render.Background {
			px = append(px, render.Pixel{X: int32(i % z.W), Y: int32(i / z.W), Depth: d, C: z.Color[i]})
		}
	}
	return []any{PixBatch{Pixels: px}}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, slices.Insert(slices.Clone(p), i, n-1))
		}
	}
	return out
}

// Property: for 0 to 3 Ra-built frames, each shipped whole, in chunks or as
// active pixels, in every arrival order, M's result equals the fold of the
// frames, in that order, into a cleared buffer with the reference merge —
// bit for bit, over two units of work of one session (so nothing adopted in
// one leaks into the next).
func TestMergeAdoptionMatchesReferenceFold(t *testing.T) {
	leakcheck.Check(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(9), 1+rng.Intn(9)
		view := View{Width: w, Height: h}
		frames := make([]*render.ZBuffer, rng.Intn(4))
		modes := make([]int, len(frames))
		for i := range frames {
			frames[i] = raFrame(rng, w, h)
			if modes[i] = rng.Intn(3); modes[i] != 0 && rng.Intn(2) == 0 {
				modes[i] = 0 // adoption is the case under test: make it common
			}
		}
		chunk := 1 + rng.Intn(w*h)
		for _, order := range permutations(len(frames)) {
			want := render.NewZBuffer(w, h)
			for _, i := range order {
				mergeRef(want, 0, frames[i].Depth, frames[i].Color)
			}
			got, _, err := runMerge(view, 2, func() []any {
				var out []any
				for _, i := range order {
					out = append(out, ship(frames[i], modes[i], chunk)...)
				}
				return out
			})
			if err != nil {
				t.Logf("seed %d order %v: %v", seed, order, err)
				return false
			}
			if string(zBits(got)) != string(zBits(want)) {
				t.Logf("seed %d: %dx%d, order %v, modes %v: M's image differs from the reference fold", seed, w, h, order, modes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// hostileKind is a test filter that ships one ZChunk breaking the ZChunk
// invariant, named by its params, across hosts to M.
const hostileKind = "isoviztest.hostile-zchunk"

var hostilePixels = map[string]struct {
	depth float32
	color render.RGB
}{
	"NaN depth":        {float32(math.NaN()), render.Background},
	"+Inf depth":       {float32(math.Inf(1)), render.Background},
	"past InfDepth":    {math.Nextafter32(render.InfDepth, float32(math.Inf(1))), render.RGB{}},
	"behind the clear": {render.InfDepth, render.RGB{R: 255, G: 255, B: 255}},
}

func init() {
	dist.RegisterFilter(hostileKind, func(params []byte) (core.Filter, error) {
		var name string
		if err := json.Unmarshal(params, &name); err != nil {
			return nil, err
		}
		hp := hostilePixels[name]
		return &payloadSender{payloads: func() []any {
			c := ZChunk{Depth: make([]float32, 4), Color: make([]render.RGB, 4)}
			c.Depth[2], c.Color[2] = hp.depth, hp.color
			return []any{c}
		}}, nil
	})
}

// A whole-frame ZChunk from a peer with one pixel behind the cleared pixel —
// which M would adopt into the image — fails the run with the decoder's
// typed error.
func TestHostileZChunkNeverReachesImage(t *testing.T) {
	leakcheck.Check(t)
	p := &framePath{t: t}
	p.startWorkers()
	pipeline, err := ReadExtract.DistGraph(ZBuffer, nil, &FieldREParams{})
	if err != nil {
		t.Fatal(err)
	}
	merge := pipeline.Filters[len(pipeline.Filters)-1]
	if merge.Name != "M" {
		t.Fatalf("last filter of %v is %s, want M", ReadExtract, merge.Name)
	}
	for name := range hostilePixels {
		params, _ := json.Marshal(name)
		graph := dist.GraphSpec{
			Filters: []dist.FilterSpec{{Name: "P", Kind: hostileKind, Params: params}, merge},
			Streams: []core.StreamSpec{{Name: StreamPixels, From: "P", To: "M"}},
		}
		placement := []dist.PlacementEntry{{Filter: "P", Host: "w0", Copies: 1}, {Filter: "M", Host: "w1", Copies: 1}}
		_, err := dist.Run(p.addrs, graph, placement, dist.Options{}, []any{View{Width: 2, Height: 2}})
		if err == nil || !strings.Contains(err.Error(), ErrZChunkBehindClear.Error()) {
			t.Errorf("%s: run error %v, want %v", name, err, ErrZChunkBehindClear)
		}
	}
}

// BenchmarkMergeFilterZFrame runs M on core over the bench's sparse frame
// (iso 0.9 at 512x512) as two z-buffer Ra copies ship it: two whole-frame
// ZChunks per unit of work, written on planes from the free lists as Ra's
// are. It reports M's busy time per frame next to the allocations.
func BenchmarkMergeFilterZFrame(b *testing.B) {
	full := volume.Rasterize(volume.NewPlumeField(2002, 5), 129, 129, 97, 0)
	const size = 512
	view := View{Width: size, Height: size}
	zs := [2]*render.ZBuffer{render.NewZBuffer(size, size), render.NewZBuffer(size, size)}
	r := render.NewRaster(geom.DefaultCamera(), size, size)
	for i, blk := range volume.Partition(129, 129, 97, 8, 8, 6) {
		tris, _ := mcubes.Extract(full.ExtractBlock(blk), 0.9, nil)
		r.DrawAll(tris, zs[i%2])
	}
	frame := func(z *render.ZBuffer) ZChunk {
		c := ZChunk{Depth: depths.get(len(z.Depth)), Color: colors.get(len(z.Color))}
		copy(c.Depth, z.Depth)
		copy(c.Color, z.Color)
		return c
	}
	b.ReportAllocs()
	b.ResetTimer()
	_, st, err := runMerge(view, b.N, func() []any { return []any{frame(zs[0]), frame(zs[1])} })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(st.Filters["M"].BusySeconds[0]*1e3/float64(b.N), "M-busy-ms/op")
}
