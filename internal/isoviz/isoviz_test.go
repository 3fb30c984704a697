package isoviz

import (
	"errors"
	"fmt"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/geom"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// testSource builds a small synthetic chunked dataset.
func testSource() *FieldSource {
	return NewFieldSource(volume.NewPlumeField(17, 4), 33, 33, 33, 3, 3, 3)
}

func testView(w int) View {
	return View{Timestep: 1, Iso: 0.35, Width: w, Height: w, Camera: geom.DefaultCamera()}
}

// renderReference renders the same chunked dataset directly (no pipeline):
// the ground-truth image every configuration must reproduce exactly.
func renderReference(t *testing.T, src ChunkSource, view View) *render.ZBuffer {
	t.Helper()
	z := render.NewZBuffer(view.Width, view.Height)
	rr := render.NewRaster(view.Camera, view.Width, view.Height)
	for i := 0; i < src.Chunks(); i++ {
		v, err := src.Load(i, view.Timestep)
		if err != nil {
			t.Fatal(err)
		}
		var mesh geom.Mesh
		mcubes.ExtractMesh(v, view.Iso, &mesh)
		rr.DrawMesh(&mesh, z)
	}
	if z.ActiveCount() == 0 {
		t.Fatal("reference image empty; bad test scene")
	}
	return z
}

func runPipeline(t *testing.T, spec PipelineSpec, pl *core.Placement, opts core.Options) (*render.ZBuffer, *core.Stats) {
	t.Helper()
	g := spec.Build()
	r, err := core.NewRunner(g, pl, opts)
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
	if m.Result() == nil {
		t.Fatal("merge produced no image")
	}
	return m.Result(), st
}

func placeAll(g *core.Graph, copies map[string][]core.PlaceEntry) *core.Placement {
	pl := core.NewPlacement()
	for f, entries := range copies {
		for _, e := range entries {
			pl.Place(f, e.Host, e.Copies)
		}
	}
	return pl
}

func TestFullPipelineMatchesReference(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(96)
	want := renderReference(t, src, view)

	spec := PipelineSpec{Config: FullPipeline, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := placeAll(spec.Build(), map[string][]core.PlaceEntry{
		"R":  {{Host: "h0", Copies: 1}},
		"E":  {{Host: "h0", Copies: 1}},
		"Ra": {{Host: "h0", Copies: 1}},
		"M":  {{Host: "h0", Copies: 1}},
	})
	got, _ := runPipeline(t, spec, pl, core.Options{UOWs: []any{view}})
	if !got.Equal(want) {
		t.Fatal("pipeline image differs from direct rendering")
	}
}

// The paper's central consistency claim: the final output is identical
// regardless of how many transparent copies run at each stage and which
// writer policy distributes buffers (§1: "the final output is consistent
// regardless of how many copies of various filters are instantiated").
func TestOutputInvariantUnderCopiesAndPolicies(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(72)
	want := renderReference(t, src, view)

	for _, alg := range []Algorithm{ZBuffer, ActivePixel} {
		for _, pol := range []core.Policy{core.RoundRobin(), core.WeightedRoundRobin(), core.DemandDriven()} {
			for _, copies := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v/%s/x%d", alg, pol.Name(), copies)
				t.Run(name, func(t *testing.T) {
					spec := PipelineSpec{Config: FullPipeline, Alg: alg, Source: src, Assign: AssignByCopy(src.Chunks())}
					pl := core.NewPlacement().
						Place("R", "h0", 1).
						Place("E", "h0", 1).Place("E", "h1", copies-copies/2).
						Place("Ra", "h0", copies).Place("Ra", "h1", copies).
						Place("M", "h0", 1)
					got, _ := runPipeline(t, spec, pl, core.Options{Policy: pol, UOWs: []any{view}})
					if !got.Equal(want) {
						t.Fatal("image depends on copies/policy")
					}
				})
			}
		}
	}
}

func TestAllConfigurationsProduceSameImage(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(80)
	want := renderReference(t, src, view)

	for _, cfg := range []Config{FullPipeline, CombinedAll, ReadExtract, ExtractRaster} {
		for _, alg := range []Algorithm{ZBuffer, ActivePixel} {
			t.Run(fmt.Sprintf("%v/%v", cfg, alg), func(t *testing.T) {
				spec := PipelineSpec{Config: cfg, Alg: alg, Source: src, Assign: AssignByCopy(src.Chunks())}
				pl := core.NewPlacement()
				for _, f := range spec.Build().Filters() {
					if f == "M" {
						pl.Place("M", "h0", 1)
						continue
					}
					pl.Place(f, "h0", 1)
					pl.Place(f, "h1", 1)
				}
				// The source filter needs exactly the copies Assign expects.
				got, _ := runPipeline(t, spec, pl, core.Options{Policy: core.DemandDriven(), UOWs: []any{view}})
				if !got.Equal(want) {
					t.Fatal("configuration changed the image")
				}
			})
		}
	}
}

func TestTimestepsRenderDifferently(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	v0, v5 := testView(64), testView(64)
	v0.Timestep, v5.Timestep = 0, 5
	spec := PipelineSpec{Config: ReadExtract, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)

	g := spec.Build()
	r, err := core.NewRunner(g, pl, core.Options{UOWs: []any{v0, v5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m, _ := MergeResult(r.Instances("M"))
	last := m.Result()
	want := renderReference(t, src, v5)
	if !last.Equal(want) {
		t.Fatal("second unit of work did not render timestep 5")
	}
	if last.Equal(renderReference(t, src, v0)) {
		t.Fatal("timesteps 0 and 5 render identically; field not evolving")
	}
}

// Table 1's shape: the active-pixel version sends many more Ra->M buffers
// than the z-buffer version, but a smaller total volume.
func TestActivePixelTradeoffVsZBuffer(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(256)
	run := func(alg Algorithm) *core.StreamStats {
		spec := PipelineSpec{Config: ReadExtract, Alg: alg, Source: src, Assign: AssignByCopy(src.Chunks())}
		pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 2).Place("M", "h0", 1)
		_, st := runPipeline(t, spec, pl, core.Options{UOWs: []any{view}, BufferBytes: 64 << 10})
		return st.Streams[StreamPixels]
	}
	zb, ap := run(ZBuffer), run(ActivePixel)
	if ap.Buffers <= zb.Buffers {
		t.Fatalf("AP should send more, smaller buffers: AP %d vs ZB %d", ap.Buffers, zb.Buffers)
	}
	if ap.Bytes >= zb.Bytes {
		t.Fatalf("AP volume %d should be below ZB volume %d", ap.Bytes, zb.Bytes)
	}
	// ZB volume is exactly the frame, once per raster copy.
	wantZB := int64(2 * view.Width * view.Height * render.ZPixelBytes)
	if zb.Bytes != wantZB {
		t.Fatalf("ZB bytes = %d, want %d", zb.Bytes, wantZB)
	}
}

// errSource fails on a specific chunk.
type errSource struct {
	*FieldSource
	failAt int
}

func (s *errSource) Load(i, ts int) (*volume.Volume, error) {
	if i == s.failAt {
		return nil, errors.New("disk error")
	}
	return s.FieldSource.Load(i, ts)
}

func TestSourceErrorPropagates(t *testing.T) {
	leakcheck.Check(t)
	src := &errSource{FieldSource: testSource(), failAt: 5}
	view := testView(32)
	spec := PipelineSpec{Config: FullPipeline, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().
		Place("R", "h0", 1).Place("E", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("expected disk error to abort the run")
	}
}

func TestWrongUOWTypeFails(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	spec := PipelineSpec{Config: ReadExtract, Alg: ZBuffer, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{"not a view"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("expected type error for bad unit of work")
	}
}

func TestAssignByCopyPartitions(t *testing.T) {
	a := AssignByCopy(10)
	seen := map[int]int{}
	for idx := 0; idx < 3; idx++ {
		for _, c := range a(fakeCtx{idx: idx, total: 3}) {
			seen[c]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("assignment covered %d chunks", len(seen))
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("chunk %d assigned %d times", c, n)
		}
	}
}

// fakeCtx implements just enough of core.Ctx for Assign tests.
type fakeCtx struct {
	core.Ctx
	idx, total int
	host       string
}

func (f fakeCtx) CopyIndex() int   { return f.idx }
func (f fakeCtx) TotalCopies() int { return f.total }
func (f fakeCtx) Host() string     { return f.host }

func TestConfigStrings(t *testing.T) {
	for cfg, want := range map[Config][3]string{
		FullPipeline:  {"R-E-Ra-M", "R", "Ra"},
		ReadExtract:   {"RE-Ra-M", "RE", "Ra"},
		ExtractRaster: {"R-ERa-M", "R", "ERa"},
		CombinedAll:   {"RERa-M", "RERa", ""},
	} {
		if got := [3]string{cfg.String(), cfg.SourceFilter(), cfg.WorkerFilter()}; got != want {
			t.Errorf("config %d: name, source, worker = %q, want %q", cfg, got, want)
		}
	}
}
