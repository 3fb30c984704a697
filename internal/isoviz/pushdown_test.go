package isoviz

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/obs"
	"datacutter/internal/render"
)

// Predicate pushdown is a correctness-critical optimization: a wrongly
// pruned chunk silently deletes part of the isosurface. The property test
// below is the primary oracle — across seeded random datasets and random
// iso-values, a pruned run must render the byte-identical image (depth AND
// color planes) of the unpruned run, and every chunk the predicate prunes
// must be provably triangle-free (summary tightness).

// pushdownPipeline renders one view through the full R-E-Ra-M pipeline
// with several copies per stage (exercising the per-copy pruning path).
func pushdownPipeline(t *testing.T, src ChunkSource, view View, pushdown bool) *render.ZBuffer {
	t.Helper()
	spec := PipelineSpec{
		Config: FullPipeline, Alg: ZBuffer,
		Source: src, Assign: AssignByCopy(src.Chunks()),
		Pushdown: pushdown,
	}
	pl := core.NewPlacement().
		Place("R", "h0", 2).
		Place("E", "h0", 2).
		Place("Ra", "h0", 2).
		Place("M", "h0", 1)
	img, _ := runPipeline(t, spec, pl, core.Options{UOWs: []any{view}})
	return img
}

func TestPushdownPropertyByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	seeds := []int64{101, 202, 303}
	trials := 6
	if testing.Short() {
		seeds = seeds[:1]
		trials = 3
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := dataset.Meta{
				GX: 33, GY: 33, GZ: 25, BX: 3, BY: 3, BZ: 3,
				Timesteps: 2, Files: 4,
				Seed: seed, Plumes: 3 + rng.Intn(3),
			}
			st, err := dataset.Create(t.TempDir(), m)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			src := &StoreSource{St: st}
			all := make([]int, st.DS.Chunks())
			for i := range all {
				all[i] = i
			}

			prunedEver := 0
			for trial := 0; trial < trials; trial++ {
				// Spans below the background (nothing prunable) through above
				// every plume peak (everything pruned).
				iso := float32(rng.Float64() * 1.3)
				ts := rng.Intn(m.Timesteps)
				view := View{Timestep: ts, Iso: iso, Width: 64, Height: 64, Camera: geom.DefaultCamera()}

				plain := pushdownPipeline(t, src, view, false)
				pruned := pushdownPipeline(t, src, view, true)
				if !plain.Equal(pruned) {
					t.Fatalf("iso %g t%d: pruned image differs from unpruned", iso, ts)
				}

				// Tightness: everything the predicate discards must emit zero
				// triangles — the summaries' min/max is exact, so no chunk is
				// both pruned and crossing.
				survived := map[int]bool{}
				for _, c := range st.Prune(all, ts, dataset.IsoPredicate(iso)) {
					survived[c] = true
				}
				for c := 0; c < st.DS.Chunks(); c++ {
					if survived[c] {
						continue
					}
					prunedEver++
					v, err := st.ReadChunk(c, ts)
					if err != nil {
						t.Fatal(err)
					}
					var mesh geom.Mesh
					if tris := mcubes.ExtractMesh(v, iso, &mesh).Triangles; tris > 0 {
						t.Fatalf("chunk %d pruned at iso %g t%d but emits %d triangles", c, iso, ts, tris)
					}
				}
			}
			if prunedEver == 0 {
				t.Fatal("no chunk was ever pruned across all trials; property test is vacuous")
			}
		})
	}
}

// Pushdown over a source that cannot prune (FieldSource) and over a store
// whose sidecar is absent must both be silent no-ops: same image, nothing
// skipped.
func TestPushdownDegradesWithoutSummaries(t *testing.T) {
	leakcheck.Check(t)
	view := testView(64)

	fieldSrc := testSource()
	plain := pushdownPipeline(t, fieldSrc, view, false)
	if got := pushdownPipeline(t, fieldSrc, view, true); !plain.Equal(got) {
		t.Fatal("pushdown over an unprunable source changed the image")
	}

	// A store created with summaries, then stripped of them (a pre-pushdown
	// dataset, datagen -no-index): Pushdown stays on but must degrade to
	// reading everything.
	dir := t.TempDir()
	m := dataset.Meta{
		GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3,
		Timesteps: 2, Files: 4, Seed: 17, Plumes: 4,
	}
	created, err := dataset.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	created.Close()
	if err := os.Remove(filepath.Join(dir, dataset.SummaryFile)); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := &StoreSource{St: st}
	diskPlain := pushdownPipeline(t, src, view, false)
	if got := pushdownPipeline(t, src, view, true); !diskPlain.Equal(got) {
		t.Fatal("pushdown over a store without a sidecar changed the image")
	}
}

// The engine must hand its observer to the read filters (core.ObserverSetter
// -> StoreSource -> Store), so pruning lands in the metrics registry.
func TestPushdownMetricsReachRegistry(t *testing.T) {
	leakcheck.Check(t)
	m := dataset.Meta{
		GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3,
		Timesteps: 1, Files: 4, Seed: 17, Plumes: 4,
	}
	st, err := dataset.Create(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := &StoreSource{St: st}
	view := testView(64)
	view.Timestep = 0
	view.Iso = 1.5 // sparse: above all but the strongest plume overlaps

	// Expected counts from a direct Prune call with the same predicate the
	// pipeline compiles.
	all := make([]int, st.DS.Chunks())
	for i := range all {
		all[i] = i
	}
	survivors := st.Prune(all, 0, dataset.IsoPredicate(view.Iso))
	wantPruned := int64(st.DS.Chunks() - len(survivors))
	if wantPruned == 0 {
		t.Fatal("iso prunes nothing; bad test scene")
	}
	var wantSkipped int64
	kept := map[int]bool{}
	for _, c := range survivors {
		kept[c] = true
	}
	for c := 0; c < st.DS.Chunks(); c++ {
		if !kept[c] {
			wantSkipped += int64(st.DS.ChunkBytes(c))
		}
	}

	reg := obs.NewRegistry()
	spec := PipelineSpec{
		Config: ReadExtract, Alg: ActivePixel,
		Source: src, Assign: AssignByCopy(src.Chunks()),
		Pushdown: true,
	}
	pl := core.NewPlacement().Place("RE", "h0", 2).Place("Ra", "h0", 2).Place("M", "h0", 1)
	runPipeline(t, spec, pl, core.Options{UOWs: []any{view}, Obs: obs.New(nil, reg)})

	if got := reg.Counter("dataset.chunks_pruned").Value(); got != wantPruned {
		t.Fatalf("chunks_pruned = %d, want %d", got, wantPruned)
	}
	if got := reg.Counter("dataset.bytes_skipped").Value(); got != wantSkipped {
		t.Fatalf("bytes_skipped = %d, want %d", got, wantSkipped)
	}
}

// On the distributed engine the predicate travels inside StoreREParams in
// the setup frame, so pruning runs on the worker that owns the store: the
// triangle traffic must be unchanged while the pruning counters accumulate
// on the worker's registry, not the coordinator's.
func TestPushdownDistNearStorage(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	m := dataset.Meta{
		GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3,
		Timesteps: 1, Files: 4, Seed: 17, Plumes: 4,
	}
	st, err := dataset.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	view := testView(64)
	view.Timestep = 0
	run := func(pushdown bool) (triBytes int64, prunedChunks int64) {
		graph, err := DistGraphStore(StoreREParams{Dir: dir, Pushdown: pushdown}, ActivePixel)
		if err != nil {
			t.Fatal(err)
		}
		workerReg := obs.NewRegistry()
		addrs := map[string]string{}
		for _, host := range []string{"w0", "w1"} {
			w, err := dist.NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			w.SetObserver(obs.New(nil, workerReg))
			go w.Serve()
			defer w.Close()
			addrs[host] = w.Addr()
		}
		placement := []dist.PlacementEntry{
			{Filter: "RE", Host: "w0", Copies: 1},
			{Filter: "RE", Host: "w1", Copies: 1},
			{Filter: "Ra", Host: "w1", Copies: 2},
			{Filter: "M", Host: "w0", Copies: 1},
		}
		stats, err := dist.Run(addrs, graph, placement, dist.Options{}, []any{view})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Streams[StreamTriangles].Bytes, workerReg.Counter("dataset.chunks_pruned").Value()
	}

	offBytes, offPruned := run(false)
	onBytes, onPruned := run(true)
	if offPruned != 0 {
		t.Fatalf("pushdown off pruned %d chunks", offPruned)
	}
	if onPruned == 0 {
		t.Fatal("pushdown on pruned nothing on the workers")
	}
	if offBytes != onBytes {
		t.Fatalf("triangle traffic changed under pushdown: %d vs %d bytes", offBytes, onBytes)
	}
}
