package isoviz

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// marginalBytesPerFrame is the heap allocated per frame beyond a session's
// first len(p.views): a session of four times as many frames, less one of
// p.views, over the extra frames. Per-session set-up cancels out.
func (p *framePath) marginalBytesPerFrame(alg Algorithm) float64 {
	views := p.views
	defer func() { p.views = views }()
	alloc := func(rounds int) uint64 {
		p.views = nil
		for i := 0; i < rounds; i++ {
			p.views = append(p.views, views...)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.session(alg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short := alloc(1)
	return float64(alloc(4)-short) / float64(3*len(views))
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

// The frame path recycles what its consumers finish, M's result planes
// included at its next Init. After a warm-up session a frame stays within
// the bounds below, per-session set-up included: it allocates about 0.3 MB
// (active pixel) and 0.13 MB (z-buffer) at 128x128. Beyond a session's
// first frames, a z-buffer frame allocates less than one plane pair
// (128x128x7 B = 112 KiB): M and every Ra copy draw theirs from the free
// lists. Recycled storage is poisoned on return: the images must still
// equal a run that reuses nothing.
func TestFramePathAllocations(t *testing.T) {
	leakcheck.Check(t)
	bounds := map[Algorithm]float64{ActivePixel: 400e3, ZBuffer: 200e3}
	if raceEnabled {
		bounds = map[Algorithm]float64{ActivePixel: 500e3, ZBuffer: 280e3}
	}
	p := newFramePath(t)
	checkFramePath(t, p, bounds)
	p.session(ZBuffer)
	planes := float64(128 * 128 * render.ZPixelBytes)
	if got := p.marginalBytesPerFrame(ZBuffer); got >= planes {
		t.Errorf("a warm z-buffer session allocates %.0f bytes per extra frame, want < %.0f (one plane pair)", got, planes)
	} else {
		t.Logf("z-buffer: %.0f bytes allocated per extra frame", got)
	}
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

// setRecycleHook sets testHookRecycle, or clears it for a nil h.
func setRecycleHook(h func(any) bool) {
	if h == nil {
		testHookRecycle.Store(nil)
	} else {
		testHookRecycle.Store(&h)
	}
}

// checkFramePath bounds the bytes allocated per frame of warm sessions on
// each algorithm, and renders from poisoned recycled storage.
func checkFramePath(t *testing.T, p *framePath, bounds map[Algorithm]float64) {
	defer setRecycleHook(nil)
	algs := []Algorithm{ActivePixel, ZBuffer}
	fresh := map[Algorithm]*render.ZBuffer{}
	setRecycleHook(func(any) bool { return false }) // before anything is poisoned
	for _, alg := range algs {
		// Kept past later sessions, whose ends release this one's result
		// planes on dist (the worker's retention): copy the image.
		z := p.session(alg)
		fresh[alg] = &render.ZBuffer{W: z.W, H: z.H, Depth: slices.Clone(z.Depth), Color: slices.Clone(z.Color)}
	}
	for _, alg := range algs {
		setRecycleHook(nil)
		p.session(alg) // warm-up: fills the free lists
		if got := p.bytesPerFrame(alg); got > bounds[alg] {
			t.Errorf("%v: %.0f bytes allocated per frame, want <= %.0f", alg, got, bounds[alg])
		} else {
			t.Logf("%v: %.0f bytes allocated per frame", alg, got)
		}

		setRecycleHook(poison)
		p.session(alg) // every recycled buffer is now poisoned
		if got := p.session(alg); !got.Equal(fresh[alg]) {
			t.Errorf("%v: image rendered from poisoned recycled storage differs from a fresh-allocation run", alg)
		}
	}
}
