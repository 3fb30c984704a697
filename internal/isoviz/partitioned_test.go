package isoviz

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/geom"
	"datacutter/internal/leakcheck"
	"datacutter/internal/render"
)

func runPartitioned(t *testing.T, bands int, copiesPerBand int, view View) (*core.Stats, *MergeFilter) {
	t.Helper()
	src := testSource()
	spec := PartitionedSpec{Bands: bands, Source: src, Assign: AssignByCopy(src.Chunks())}
	g := spec.Build()
	pl := core.NewPlacement().Place("RE", "h0", 2).Place("M", "h0", 1)
	for i := 0; i < bands; i++ {
		pl.Place(BandFilterName(i), "h0", copiesPerBand)
		if copiesPerBand > 1 {
			// Spread hybrid copies over a second host too.
			pl.Place(BandFilterName(i), "h1", 1)
		}
	}
	r, err := core.NewRunner(g, pl, core.Options{Policy: core.DemandDriven(), UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeResult(r.Instances("M"))
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// The hybrid pipeline must produce the exact reference image for any band
// count, including bands that do not divide the height, and with
// replication within bands.
func TestPartitionedPipelineExact(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(90) // 90 not divisible by 4 or 7
	want := renderReference(t, src, view)
	for _, bands := range []int{1, 2, 4, 7} {
		for _, copies := range []int{1, 2} {
			t.Run(fmt.Sprintf("bands=%d copies=%d", bands, copies), func(t *testing.T) {
				_, m := runPartitioned(t, bands, copies, view)
				if !m.Result().Equal(want) {
					t.Fatal("partitioned image differs from reference")
				}
			})
		}
	}
}

// The point of partitioning (paper §6: "the merge filter becomes a
// bottleneck" as copies grow): the replicated z-buffer pipeline ships
// copies x full frame to the merge filter, while the partitioned pipeline
// ships each winning pixel once — its merge traffic does not grow with
// parallelism.
func TestPartitionedReducesMergeTraffic(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(128)
	const par = 6

	// Replicated z-buffer: par full-screen raster copies, par frames.
	spec := PipelineSpec{Config: ReadExtract, Alg: ZBuffer, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 2).Place("Ra", "h0", par).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{Policy: core.RoundRobin(), UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	stRep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	repBytes := stRep.Streams[StreamPixels].Bytes
	wantRep := int64(par * view.Width * view.Height * 7)
	if repBytes != wantRep {
		t.Fatalf("replicated z-buffer traffic = %d, want %d", repBytes, wantRep)
	}

	// Partitioned: par bands, one copy each.
	stPart, _ := runPartitioned(t, par, 1, view)
	var partBytes int64
	for i := 0; i < par; i++ {
		partBytes += stPart.Streams[PixBandStream(i)].Bytes
	}
	if partBytes*4 >= repBytes {
		t.Fatalf("partitioned merge traffic (%d B) should be far below replicated z-buffer (%d B)", partBytes, repBytes)
	}
}

// Band routing duplicates only triangles that straddle band borders: total
// routed triangles stay well below bands x extracted.
func TestPartitionedRoutingDuplicationBounded(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(96)
	st, _ := runPartitioned(t, 8, 1, view)
	var routed int64
	for i := 0; i < 8; i++ {
		routed += st.Streams[TriBandStream(i)].Bytes
	}
	// Reference extraction count.
	ref := renderReference(t, src, view) // ensures scene non-trivial
	_ = ref
	spec := PipelineSpec{Config: ReadExtract, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	r, _ := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
	stRep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := stRep.Streams[StreamTriangles].Bytes
	if routed > base*3 {
		t.Fatalf("routing tripled triangle traffic: %d vs base %d", routed, base)
	}
	if routed < base {
		t.Fatalf("routing lost triangles: %d vs base %d", routed, base)
	}
}

func TestPartitionedBadBandCount(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(32)
	// Bands < 1 must surface as a run error.
	spec := PartitionedSpec{Bands: 0, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), ">= 1 band") {
		t.Fatalf("zero bands: run error %v", err)
	}
}

// renderBatches draws batches through one unbanded RasterAPFilter and M,
// or, when bands > 0, through a RouteFilter, one band RasterAPFilter per
// band and M.
func renderBatches(t *testing.T, view View, bands int, batches []geom.Mesh) *render.ZBuffer {
	t.Helper()
	g := core.NewGraph()
	pl := core.NewPlacement().Place("S", "h0", 1).Place("M", "h0", 1)
	g.AddFilter("S", func() core.Filter {
		return &payloadSender{out: StreamTriangles, payloads: func() []any {
			var out []any
			for _, m := range batches {
				out = append(out, TriBatch{geom.Mesh{P: slices.Clone(m.P), N: slices.Clone(m.N), Idx: slices.Clone(m.Idx)}})
			}
			return out
		}}
	})
	var ins []string
	if bands == 0 {
		ins = []string{StreamPixels}
		g.AddFilter("Ra", func() core.Filter { return &RasterAPFilter{In: StreamTriangles, Out: StreamPixels} })
		g.Connect("S", "Ra", StreamTriangles).Connect("Ra", "M", StreamPixels)
		pl.Place("Ra", "h0", 1)
	} else {
		g.AddFilter("Rt", func() core.Filter { return &RouteFilter{In: StreamTriangles, Bands: bands} })
		g.Connect("S", "Rt", StreamTriangles)
		pl.Place("Rt", "h0", 1)
		for i := range bands {
			name := BandFilterName(i)
			g.AddFilter(name, func() core.Filter {
				return &RasterAPFilter{In: TriBandStream(i), Out: PixBandStream(i), Band: i, Bands: bands}
			})
			g.Connect("Rt", name, TriBandStream(i)).Connect(name, "M", PixBandStream(i))
			pl.Place(name, "h0", 1)
			ins = append(ins, PixBandStream(i))
		}
	}
	g.AddFilter("M", func() core.Filter { return &MergeFilter{Ins: ins} })
	r, err := core.NewRunner(g, pl, core.Options{UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := MergeResult(r.Instances("M"))
	if err != nil {
		t.Fatal(err)
	}
	return m.Result()
}

// A vertex whose clip w is NaN is neither culled by the rasterizer nor by
// the route. Its triangle fills the screen box of its finite corners with
// NaN depths, and a NaN pixel still in the active-pixel WPA shadows a
// later pixel at the same place, so such a triangle changes the image:
// the route must keep it. Each batch holds one triangle with a NaN corner,
// in each corner position, followed by one-pixel triangles along the last
// row it would fill. The boxes straddle the border of bands 0 and 1 of 3.
func TestRouteKeepsNaNVertices(t *testing.T) {
	leakcheck.Check(t)
	view := testView(64)
	m := view.Camera.Matrix(view.Width, view.Height)
	screen := func(p geom.Vec3) (float64, float64) {
		s, _ := m.Apply(p)
		return float64(s.X), float64(s.Y)
	}
	// worldAt returns a point of the plane z = 0.5 that m maps onto screen
	// point (sx, sy), by chord iterations on the map's Jacobian at the
	// view's center.
	c := geom.V(0.5, 0.5, 0.5)
	cx, cy := screen(c)
	ux, uy := screen(c.Add(geom.V(0.01, 0, 0)))
	vx, vy := screen(c.Add(geom.V(0, 0.01, 0)))
	ux, uy, vx, vy = ux-cx, uy-cy, vx-cx, vy-cy
	det := ux*vy - vx*uy
	worldAt := func(sx, sy float64) geom.Vec3 {
		p := c
		for range 8 {
			px, py := screen(p)
			dx, dy := sx-px, sy-py
			a, b := (dx*vy-vx*dy)/det, (ux*dy-dx*uy)/det
			p = p.Add(geom.V(float32(0.01*a), float32(0.01*b), 0))
		}
		return p
	}

	nan := float32(math.NaN())
	var withNaN, without []geom.Mesh
	for k := range 3 {
		left := 4.3 + 19*float64(k) // each case's pixels apart from the others'
		corners := [2]geom.Vec3{worldAt(left, 17.4), worldAt(left+7.3, 23.6)}
		x0, y0 := screen(corners[0])
		x1, y1 := screen(corners[1])
		lastRow := math.Ceil(max(y0, y1))
		b := geom.Mesh{P: []geom.Vec3{corners[0], corners[1], geom.V(nan, nan, nan)}}
		tri := []uint32{0, 1, 0}
		tri[k] = 2
		tri[(k+1)%3], tri[(k+2)%3] = 0, 1
		b.Idx = tri
		for x := math.Floor(min(x0, x1)); x <= math.Ceil(max(x0, x1)); x++ {
			n := uint32(len(b.P))
			px, py := x+0.5, lastRow+0.5
			b.P = append(b.P, worldAt(px-0.3, py-0.3), worldAt(px+0.3, py-0.3), worldAt(px, py+0.3))
			b.Idx = append(b.Idx, n, n+1, n+2)
		}
		for range b.P {
			b.N = append(b.N, geom.V(0, 0, 1))
		}
		withNaN = append(withNaN, b)
		without = append(without, geom.Mesh{P: b.P, N: b.N, Idx: b.Idx[3:]})
	}

	want := renderBatches(t, view, 0, withNaN)
	if want.Equal(renderBatches(t, view, 0, without)) {
		t.Fatal("the NaN-vertex triangles leave the image unchanged; the test is vacuous")
	}
	for _, bands := range []int{1, 3} {
		if !renderBatches(t, view, bands, withNaN).Equal(want) {
			t.Errorf("%d bands: routed image differs from the unbanded raster's", bands)
		}
	}
}
