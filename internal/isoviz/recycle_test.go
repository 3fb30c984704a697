package isoviz

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/leakcheck"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// A ZChunk that does not describe a run of the frame — a peer's bad frame
// — fails the merge filter with ErrZChunkBounds instead of indexing out of
// range.
func TestMergeRejectsZChunkOutsideFrame(t *testing.T) {
	leakcheck.Check(t)
	view := testView(8) // 64 pixels
	for name, c := range map[string]ZChunk{
		"past the end":      {Off: 60, Depth: make([]float32, 5), Color: make([]render.RGB, 5)},
		"offset beyond":     {Off: 1 << 40, Depth: make([]float32, 1), Color: make([]render.RGB, 1)},
		"negative offset":   {Off: -1, Depth: make([]float32, 1), Color: make([]render.RGB, 1)},
		"fewer colors":      {Off: 0, Depth: make([]float32, 4), Color: make([]render.RGB, 2)},
		"more colors":       {Off: 0, Depth: make([]float32, 2), Color: make([]render.RGB, 4)},
		"whole frame + one": {Off: 0, Depth: make([]float32, 65), Color: make([]render.RGB, 65)},
	} {
		if _, _, err := runMerge(view, 1, func() []any { return []any{c} }); !errors.Is(err, ErrZChunkBounds) {
			t.Errorf("%s: run error %v, want ErrZChunkBounds", name, err)
		}
	}
}

// framePath runs the two frame paths over a small store, one session per
// call, and returns each session's final image. With workers set it runs
// them on dist instead of core.
type framePath struct {
	t     *testing.T
	dir   string
	src   *StoreSource
	views []View

	workers []*dist.Worker // w0, w1
	addrs   map[string]string
}

func newFramePath(t *testing.T) *framePath {
	dir := t.TempDir()
	st, err := dataset.Create(dir, dataset.Meta{
		GX: 33, GY: 33, GZ: 33, BX: 4, BY: 4, BZ: 3, Timesteps: 2, Files: 4, Seed: 2002, Plumes: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	p := &framePath{t: t, dir: dir, src: &StoreSource{St: st}}
	for i := 0; i < 8; i++ {
		p.views = append(p.views, View{Timestep: i % 2, Iso: 0.15 + 0.05*float32(i%3), Width: 128, Height: 128, Camera: geom.DefaultCamera()})
	}
	return p
}

// startWorkers moves the frame path onto two in-process dist workers.
func (p *framePath) startWorkers() {
	p.addrs = map[string]string{}
	for i := 0; i < 2; i++ {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			p.t.Fatal(err)
		}
		go w.Serve()
		p.t.Cleanup(w.Close)
		p.workers = append(p.workers, w)
		p.addrs[fmt.Sprintf("w%d", i)] = w.Addr()
	}
}

// session renders p.views in one run. On core: active pixel on RE x2 ->
// Ra x2 -> M, or z-buffer on R -> E x2 -> Ra x2 -> M. On dist: RE x2 on w0
// and Ra x2 + M on w1 over loopback TCP, so every triangle batch and pixel
// run crosses a connection through its codec.
func (p *framePath) session(alg Algorithm) *render.ZBuffer {
	if p.workers != nil {
		return p.distSession(alg)
	}
	cfg, place := ReadExtract, map[string]int{"RE": 2, "Ra": 2, "M": 1}
	if alg == ZBuffer {
		cfg, place = FullPipeline, map[string]int{"R": 1, "E": 2, "Ra": 2, "M": 1}
	}
	pl := core.NewPlacement()
	for f, n := range place {
		pl.Place(f, "h0", n)
	}
	uows := make([]any, len(p.views))
	for i, v := range p.views {
		uows[i] = v
	}
	spec := PipelineSpec{Config: cfg, Alg: alg, Source: p.src, Assign: AssignByCopy(p.src.Chunks())}
	img, _ := runPipeline(p.t, spec, pl, core.Options{Policy: core.PolicyByName("DD"), UOWs: uows})
	return img
}

func (p *framePath) distSession(alg Algorithm) *render.ZBuffer {
	graph, err := DistGraphStore(StoreREParams{Dir: p.dir}, alg)
	if err != nil {
		p.t.Fatal(err)
	}
	uows := make([]any, len(p.views))
	for i, v := range p.views {
		uows[i] = v
	}
	placement := []dist.PlacementEntry{
		{Filter: "RE", Host: "w0", Copies: 2},
		{Filter: "Ra", Host: "w1", Copies: 2},
		{Filter: "M", Host: "w1", Copies: 1},
	}
	if _, err := dist.Run(p.addrs, graph, placement, dist.Options{Policy: "DD"}, uows); err != nil {
		p.t.Fatal(err)
	}
	m, err := MergeResult(p.workers[1].Instances("M"))
	if err != nil {
		p.t.Fatal(err)
	}
	return m.Result()
}

// bytesPerFrame is the heap allocated per frame over two sessions.
func (p *framePath) bytesPerFrame(alg Algorithm) float64 {
	const sessions = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		p.session(alg)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(sessions*len(p.views))
}

// poison fills recycled storage, to its capacity, with values that would
// show in the image if anything read them: NaN samples and vertices,
// indices that would panic, and pixels that win every depth test.
func poison(s any) bool {
	nan, closest := float32(math.NaN()), float32(math.Inf(-1))
	magenta := render.RGB{R: 255, B: 255}
	switch s := s.(type) {
	case *volume.Volume:
		fill(s.Data, nan)
	case []geom.Vec3:
		fill(s, geom.V(nan, nan, nan))
	case []uint32:
		fill(s, math.MaxUint32) // an index past any vertex plane
	case []render.Pixel:
		s = s[:cap(s)]
		for i := range s {
			s[i] = render.Pixel{X: int32(i % 128), Y: 3, Depth: closest, C: magenta}
		}
	case []float32:
		fill(s, closest)
	case []render.RGB:
		fill(s, magenta)
	}
	return true
}

// fill sets s to v up to its capacity.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// The frame path recycles what its consumers finish, so after a warm-up
// session a frame allocates about 0.45 MB (active pixel) and 0.25 MB
// (z-buffer), much of it per-session set-up and M's result image (128x128x7
// B = 112 KiB). With every payload allocated fresh, as before recycling,
// the same sessions allocated 1.93 MB and 2.17 MB per frame. On the
// z-buffer path M adopts the first Ra copy's planes as its image, so that
// copy draws new planes for its next frame where M used to allocate its
// accumulator: the frame allocates what it did when M merged every chunk,
// 0.23–0.25 MB (0.30–0.34 MB under -race), and one more image per frame
// (0.34–0.35 MB, 0.45 MB) breaks the bound. Recycled storage is poisoned on
// return: the images must still equal a run that reuses nothing.
func TestFramePathAllocations(t *testing.T) {
	leakcheck.Check(t)
	zbuffer := 300e3
	if raceEnabled {
		zbuffer = 420e3
	}
	checkFramePath(t, newFramePath(t), map[Algorithm]float64{ActivePixel: 800e3, ZBuffer: zbuffer})
}

// On dist the senders' codecs recycle what they encode, so a frame of a
// warm session allocates about 0.7 MB (active pixel) and 0.4 MB (z-buffer)
// for both workers and the coordinator together. When every encoded payload
// was dropped, the same sessions allocated 3.2–3.4 MB and 3.1–3.3 MB per
// frame (under -race, 2.3–2.6 MB now against 4.9–5.3 MB then). Poisoning
// recycled storage proves nothing reads a payload after its codec's Append.
func TestFramePathAllocationsDist(t *testing.T) {
	leakcheck.Check(t)
	p := newFramePath(t)
	p.startWorkers()
	bound := 1.5e6
	if raceEnabled {
		bound = 3.5e6
	}
	checkFramePath(t, p, map[Algorithm]float64{ActivePixel: bound, ZBuffer: bound})
}

// checkFramePath bounds the bytes allocated per frame of warm sessions on
// each algorithm, and renders from poisoned recycled storage.
func checkFramePath(t *testing.T, p *framePath, bounds map[Algorithm]float64) {
	defer func() { testHookRecycle = nil }()
	algs := []Algorithm{ActivePixel, ZBuffer}
	fresh := map[Algorithm]*render.ZBuffer{}
	testHookRecycle = func(any) bool { return false } // before anything is poisoned
	for _, alg := range algs {
		fresh[alg] = p.session(alg)
	}
	for _, alg := range algs {
		testHookRecycle = nil
		p.session(alg) // warm-up: fills the free lists
		if got := p.bytesPerFrame(alg); got > bounds[alg] {
			t.Errorf("%v: %.0f bytes allocated per frame, want <= %.0f", alg, got, bounds[alg])
		} else {
			t.Logf("%v: %.0f bytes allocated per frame", alg, got)
		}

		testHookRecycle = poison
		p.session(alg) // every recycled buffer is now poisoned
		if got := p.session(alg); !got.Equal(fresh[alg]) {
			t.Errorf("%v: image rendered from poisoned recycled storage differs from a fresh-allocation run", alg)
		}
	}
}
