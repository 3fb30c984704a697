package isoviz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/leakcheck"
)

// The real pipeline fed from an on-disk store must produce the same image
// as the in-memory field source (the store holds exact sampled data).
func TestStoreSourceMatchesFieldSource(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	m := dataset.Meta{
		GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3,
		Timesteps: 2, Files: 8, Seed: 17, Plumes: 4,
	}
	st, err := dataset.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	view := testView(64)
	run := func(src ChunkSource) [32]byte {
		spec := PipelineSpec{Config: ReadExtract, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
		pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 2).Place("M", "h0", 1)
		img, _ := runPipeline(t, spec, pl, core.Options{UOWs: []any{view}})
		var sum [32]byte
		for i, c := range img.Color {
			sum[i%32] ^= c.R + c.G<<1 + c.B<<2
			_ = i
		}
		return sum
	}
	disk := run(&StoreSource{St: st})
	mem := run(NewFieldSource(st.DS.Field(), 33, 33, 33, 3, 3, 3))
	if disk != mem {
		t.Fatal("disk-backed pipeline renders differently from in-memory pipeline")
	}
}

// AssignByDistribution must split a host's chunks disjointly among the
// copies placed on that host.
func TestAssignByDistributionSplitsWithinHost(t *testing.T) {
	ds, err := dataset.New(dataset.Meta{
		GX: 17, GY: 17, GZ: 17, BX: 4, BY: 4, BZ: 4,
		Timesteps: 1, Files: 8, Seed: 3, Plumes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := dataset.DistributeEven(ds.Files, []string{"a", "b"}, 1)
	pl := core.NewPlacement().Place("R", "a", 2).Place("R", "b", 1)
	assign := AssignByDistribution(ds, dist, pl, "R")

	seen := map[int]int{}
	ctxs := []fakeCtx{
		{idx: 0, total: 3, host: "a"},
		{idx: 1, total: 3, host: "a"},
		{idx: 2, total: 3, host: "b"},
	}
	for _, c := range ctxs {
		for _, chunk := range assign(c) {
			seen[chunk]++
		}
	}
	if len(seen) != ds.Chunks() {
		t.Fatalf("assignment covered %d of %d chunks", len(seen), ds.Chunks())
	}
	for chunk, n := range seen {
		if n != 1 {
			t.Fatalf("chunk %d assigned %d times", chunk, n)
		}
	}
	// The two copies on host a share that host's chunks roughly evenly.
	a0 := len(assign(ctxs[0]))
	a1 := len(assign(ctxs[1]))
	if a0 == 0 || a1 == 0 {
		t.Fatalf("intra-host split degenerate: %d/%d", a0, a1)
	}
	if diff := a0 - a1; diff < -1 || diff > 1 {
		t.Fatalf("intra-host split uneven: %d vs %d", a0, a1)
	}
}

// sendZBuffer must cover every pixel exactly once across its chunks.
func TestZBufferChunkingCoversFrame(t *testing.T) {
	leakcheck.Check(t)
	src := testSource()
	view := testView(96)
	spec := PipelineSpec{Config: ReadExtract, Alg: ZBuffer, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	g := spec.Build()
	r, err := core.NewRunner(g, pl, core.Options{UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Total Ra->M bytes = frame size exactly (one raster copy).
	want := int64(view.Width * view.Height * 7)
	if got := st.Streams[StreamPixels].Bytes; got != want {
		t.Fatalf("z-buffer transport %d bytes, want %d", got, want)
	}
}

// Each copy of a dist source filter over a store opens its own
// dataset.Store, and a persistent worker serves any number of sessions: the
// store must be closed when the session retires the copy, or every job leaks
// file handles. 50 back-to-back runs on one worker must leave the process's
// open-file count flat, and closing the source copies must not touch the
// sink — the merged image stays retrievable. The source filter is a fusion
// (RE) in RE–Ra–M and a bare R in R–E–Ra–M.
func TestDistStoreHandlesClosedPerSession(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	for _, cfg := range []Config{ReadExtract, FullPipeline} {
		t.Run(cfg.String(), func(t *testing.T) { distStoreHandlesClosedPerSession(t, cfg) })
	}
}

func distStoreHandlesClosedPerSession(t *testing.T, cfg Config) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := dataset.Create(dir, dataset.Meta{
		GX: 17, GY: 17, GZ: 17, BX: 2, BY: 2, BZ: 2,
		Timesteps: 1, Files: 4, Seed: 5, Plumes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	graph, err := cfg.DistGraph(ActivePixel, &StoreREParams{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dist.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()
	addrs := map[string]string{"w0": w.Addr()}
	var placement []dist.PlacementEntry
	for _, f := range graph.Filters {
		copies := 1
		if f.Name == cfg.SourceFilter() {
			copies = 2
		}
		placement = append(placement, dist.PlacementEntry{Filter: f.Name, Host: "w0", Copies: copies})
	}
	view := testView(32)
	view.Timestep = 0
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	run := func(job uint64) {
		if _, err := dist.Run(addrs, graph, placement, dist.Options{JobID: job}, []any{view}); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
	}
	run(1) // warm up: the peer mesh, the listener's accepted conns
	before := openFiles()
	for job := uint64(2); job <= 51; job++ {
		run(job)
	}
	// Teardown of the last session's sockets may trail Run's return.
	deadline := time.Now().Add(2 * time.Second)
	for openFiles() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := openFiles(); after > before+2 {
		t.Fatalf("open files grew from %d to %d over 50 sessions", before, after)
	}
	ms := w.InstancesJob(51, "M")
	if len(ms) != 1 {
		t.Fatalf("InstancesJob(51, M) = %d instances, want 1", len(ms))
	}
	img := ms[0].(*MergeFilter).Result()
	if img == nil || img.ActiveCount() == 0 {
		t.Fatal("merged image missing after the session's copies were retired")
	}
}

// A client can still ship store params that carry the readahead and mmap
// fields the store read path no longer has. The worker must decode them
// (encoding/json skips unknown fields) and render exactly the image the
// current params render.
func TestDistStoreAcceptsRetiredReadParams(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := dataset.Create(dir, dataset.Meta{
		GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3,
		Timesteps: 1, Files: 4, Seed: 17, Plumes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	current, err := DistGraphStore(StoreREParams{Dir: dir}, ActivePixel)
	if err != nil {
		t.Fatal(err)
	}
	quotedDir, err := json.Marshal(dir)
	if err != nil {
		t.Fatal(err)
	}
	retired, err := DistGraphStore(StoreREParams{Dir: dir}, ActivePixel)
	if err != nil {
		t.Fatal(err)
	}
	retired.Filters[0].Params = []byte(fmt.Sprintf(`{"Config":%d,"Alg":%d,"Filter":"RE","Store":{"Dir":%s,"Readahead":4,"ReadaheadBytes":1048576,"Mmap":true}}`,
		ReadExtract, ActivePixel, quotedDir))

	view := testView(64)
	view.Timestep = 0
	image := func(graph dist.GraphSpec) []byte {
		workers := map[string]*dist.Worker{}
		addrs := map[string]string{}
		for _, host := range []string{"w0", "w1"} {
			w, err := dist.NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go w.Serve()
			defer w.Close()
			workers[host], addrs[host] = w, w.Addr()
		}
		placement := []dist.PlacementEntry{
			{Filter: "RE", Host: "w0", Copies: 1},
			{Filter: "RE", Host: "w1", Copies: 1},
			{Filter: "Ra", Host: "w1", Copies: 2},
			{Filter: "M", Host: "w0", Copies: 1},
		}
		if _, err := dist.Run(addrs, graph, placement, dist.Options{JobID: 1}, []any{view}); err != nil {
			t.Fatal(err)
		}
		ms := workers["w0"].InstancesJob(1, "M")
		if len(ms) != 1 {
			t.Fatalf("InstancesJob(1, M) = %d instances, want 1", len(ms))
		}
		img := ms[0].(*MergeFilter).Result()
		if img == nil || img.ActiveCount() == 0 {
			t.Fatal("merge produced no image")
		}
		return zBits(img)
	}
	if !bytes.Equal(image(retired), image(current)) {
		t.Fatal("params with the retired readahead and mmap fields render a different image")
	}
}
