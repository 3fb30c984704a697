package isoviz

import (
	"fmt"
	"testing"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/leakcheck"
	"datacutter/internal/sim"
	"datacutter/internal/simrt"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.New(dataset.Meta{
		GX: 65, GY: 65, GZ: 65,
		BX: 4, BY: 4, BZ: 4,
		Timesteps: 3, Files: 16,
		Seed: 23, Plumes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestWorkloadEstimatesSkewAndTotals(t *testing.T) {
	ds := testDataset(t)
	w := NewWorkload(ds, 0.35)
	var total int64
	empty, busy := 0, 0
	for i := 0; i < ds.Chunks(); i++ {
		st := w.Stats(i, 0)
		if st.Cells != 16*16*16 {
			t.Fatalf("chunk %d cells = %d", i, st.Cells)
		}
		if st.Tris < 0 || st.ActiveCells > st.Cells {
			t.Fatalf("nonsense stats: %+v", st)
		}
		if st.Tris == 0 {
			empty++
		} else {
			busy++
		}
		total += int64(st.Tris)
	}
	if total != w.TotalTris(0) {
		t.Fatalf("TotalTris %d != sum %d", w.TotalTris(0), total)
	}
	if empty == 0 || busy == 0 {
		t.Fatalf("no spatial skew: %d empty, %d busy chunks", empty, busy)
	}
}

func TestWorkloadEvolvesAcrossTimesteps(t *testing.T) {
	ds := testDataset(t)
	w := NewWorkload(ds, 0.35)
	if w.TotalTris(0) == w.TotalTris(2) {
		t.Fatal("workload identical across timesteps")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	ds := testDataset(t)
	a, b := NewWorkload(ds, 0.35), NewWorkload(ds, 0.35)
	for i := 0; i < ds.Chunks(); i += 7 {
		if a.Stats(i, 1) != b.Stats(i, 1) {
			t.Fatalf("chunk %d stats differ", i)
		}
	}
}

// simSetup builds a uniform simulated cluster and a model pipeline on it.
func simSetup(t *testing.T, ds *dataset.Dataset, cfg Config, alg Algorithm, pol core.Policy, hosts, bg int) (*simrtRun, *cluster.Cluster) {
	t.Helper()
	k := sim.NewKernel()
	cl := cluster.New(k)
	var names []string
	for i := 0; i < hosts; i++ {
		h := cl.AddHost(cluster.HostSpec{
			Name: fmt.Sprintf("n%d", i), Cores: 1, Speed: 1,
			NICBandwidth: 50e6, NICOverhead: 20e-6,
			Disks: []cluster.DiskSpec{{SeekSeconds: 0.005, Bandwidth: 30e6}},
		})
		if i >= hosts/2 && bg > 0 {
			h.SetBackgroundJobs(bg)
		}
		names = append(names, h.Spec.Name)
	}
	w := NewWorkload(ds, 0.35)
	dist := dataset.DistributeEven(ds.Files, names, 1)
	pl := core.NewPlacement()
	spec := ModelSpec{Config: cfg, Alg: alg, W: w, Dist: dist, Assign: nil, Costs: DefaultCosts()}
	src := cfg.SourceFilter()
	for _, n := range names {
		pl.Place(src, n, 1)
	}
	if wk := cfg.WorkerFilter(); wk != "" && wk != src {
		for _, n := range names {
			pl.Place(wk, n, 1)
		}
	}
	if cfg == FullPipeline {
		for _, n := range names {
			pl.Place("E", n, 1)
		}
	}
	pl.Place("M", names[0], 1)
	spec.Assign = AssignByDistribution(ds, dist, pl, src)
	return &simrtRun{spec: spec, pl: pl, pol: pol}, cl
}

type simrtRun struct {
	spec ModelSpec
	pl   *core.Placement
	pol  core.Policy
}

func (r *simrtRun) run(t *testing.T, cl *cluster.Cluster, view View) (*core.Stats, *ModelMerge) {
	t.Helper()
	g := r.spec.Build()
	// Small stream buffers: the paper's runs had hundreds of buffers per
	// producer; scheduling tests need that granularity for DD to adapt.
	runner, err := simrt.NewRunner(g, r.pl, cl, simrt.Options{Policy: r.pol, UOWs: []any{view}, BufferBytes: 24 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := runner.Instances("M")[0].(*ModelMerge)
	return st, m
}

func TestModelPipelineRunsOnSimCluster(t *testing.T) {
	leakcheck.Check(t)
	ds := testDataset(t)
	for _, cfg := range []Config{FullPipeline, CombinedAll, ReadExtract, ExtractRaster} {
		for _, alg := range []Algorithm{ZBuffer, ActivePixel} {
			t.Run(fmt.Sprintf("%v/%v", cfg, alg), func(t *testing.T) {
				r, cl := simSetup(t, ds, cfg, alg, core.DemandDriven(), 4, 0)
				st, m := r.run(t, cl, DefaultView(0.35))
				if st.WallSeconds <= 0 {
					t.Fatal("no virtual time elapsed")
				}
				if m.Received == 0 || m.PixelsMerged == 0 {
					t.Fatalf("merge saw nothing: %+v", m)
				}
			})
		}
	}
}

// Table 1's shape must hold in the model too: AP ships more, smaller
// buffers than ZB.
func TestModelAPvsZBTransport(t *testing.T) {
	leakcheck.Check(t)
	ds := testDataset(t)
	view := DefaultView(0.35)
	view.Width, view.Height = 1024, 1024
	get := func(alg Algorithm) *core.StreamStats {
		r, cl := simSetup(t, ds, ReadExtract, alg, core.RoundRobin(), 4, 0)
		st, _ := r.run(t, cl, view)
		return st.Streams[StreamPixels]
	}
	zb, ap := get(ZBuffer), get(ActivePixel)
	if ap.Buffers <= zb.Buffers || ap.Bytes >= zb.Bytes {
		t.Fatalf("AP %d bufs/%d B vs ZB %d bufs/%d B: wrong shape",
			ap.Buffers, ap.Bytes, zb.Buffers, zb.Bytes)
	}
}

// Table 3's shape: under background load on half the hosts, DD shifts E->Ra
// buffers toward the unloaded hosts; RR does not.
func TestModelDDShiftsBuffersUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	ds := testDataset(t)
	view := DefaultView(0.35)
	share := func(pol core.Policy, bg int) (loaded, unloaded int64) {
		r, cl := simSetup(t, ds, ReadExtract, ActivePixel, pol, 4, bg)
		st, _ := r.run(t, cl, view)
		for host, n := range st.Streams[StreamTriangles].PerTargetHost {
			if host == "n2" || host == "n3" {
				loaded += n
			} else {
				unloaded += n
			}
		}
		return
	}
	ddL, ddU := share(core.DemandDriven(), 8)
	rrL, rrU := share(core.RoundRobin(), 8)
	// RR is oblivious: its split stays near even (per-producer cyclic
	// remainders bound the imbalance by 2 buffers per producer).
	if diff := rrU - rrL; diff < -8 || diff > 8 {
		t.Fatalf("RR shifted load: loaded=%d unloaded=%d", rrL, rrU)
	}
	if ddU <= ddL {
		t.Fatalf("DD did not shift buffers off loaded hosts: loaded=%d unloaded=%d", ddL, ddU)
	}
	if float64(ddU)/float64(ddL+1) <= float64(rrU)/float64(rrL+1) {
		t.Fatalf("DD shift (%d/%d) not stronger than RR (%d/%d)", ddU, ddL, rrU, rrL)
	}
}

// DD must beat RR on makespan under load imbalance (Table 4's shape).
func TestModelDDBeatsRRUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	ds := testDataset(t)
	view := DefaultView(0.35)
	mk := func(pol core.Policy) float64 {
		r, cl := simSetup(t, ds, ReadExtract, ActivePixel, pol, 4, 8)
		st, _ := r.run(t, cl, view)
		return st.WallSeconds
	}
	dd, rr := mk(core.DemandDriven()), mk(core.RoundRobin())
	if dd >= rr {
		t.Fatalf("DD (%.2fs) not faster than RR (%.2fs) under load", dd, rr)
	}
}

func TestModelDeterminism(t *testing.T) {
	leakcheck.Check(t)
	ds := testDataset(t)
	view := DefaultView(0.35)
	mk := func() float64 {
		r, cl := simSetup(t, ds, FullPipeline, ActivePixel, core.DemandDriven(), 4, 4)
		st, _ := r.run(t, cl, view)
		return st.WallSeconds
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("nondeterministic model run: %v vs %v", a, b)
	}
}

// The model twins must ship buffer counts in the same ballpark as the real
// filters on the same dataset (within the estimator's resolution-scaling
// error).
func TestModelBufferCountsTrackRealPipeline(t *testing.T) {
	leakcheck.Check(t)
	// Real run on the in-memory source.
	ds := testDataset(t)
	src := NewFieldSource(ds.Field(), 65, 65, 65, 4, 4, 4)
	view := View{Timestep: 0, Iso: 0.35, Width: 256, Height: 256, Camera: DefaultView(0.35).Camera}
	spec := PipelineSpec{Config: ReadExtract, Alg: ActivePixel, Source: src, Assign: AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	g := spec.Build()
	runner, err := core.NewRunner(g, pl, core.Options{UOWs: []any{view}, BufferBytes: 24 << 10})
	if err != nil {
		t.Fatal(err)
	}
	realStats, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Model run, same dataset/view.
	r, cl := simSetup(t, ds, ReadExtract, ActivePixel, core.RoundRobin(), 1, 0)
	modelStats, _ := r.run(t, cl, view)

	rt := realStats.Streams[StreamTriangles].Buffers
	mt := modelStats.Streams[StreamTriangles].Buffers
	if mt < rt/3 || mt > rt*3 {
		t.Fatalf("model E->Ra buffers (%d) far from real (%d)", mt, rt)
	}
}

// batchCheck is a sink for the triangle stream: it counts the batches and
// triangles it receives and fails on a batch over cap triangles or with an
// index past its own vertices.
type batchCheck struct {
	core.BaseFilter
	cap           int
	batches, tris int
	full          int // batches of exactly cap triangles
}

func (f *batchCheck) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read(StreamTriangles)
		if !ok {
			return nil
		}
		tb := b.Payload.(TriBatch)
		n := tb.Triangles()
		if n == 0 || n > f.cap || len(tb.N) != len(tb.P) || len(tb.Idx) != 3*n || b.Size != n*geom.TriangleBytes {
			return fmt.Errorf("batch of %d triangles (cap %d), %d positions, %d normals, %d indices, size %d",
				n, f.cap, len(tb.P), len(tb.N), len(tb.Idx), b.Size)
		}
		for i, x := range tb.Idx {
			if int(x) >= len(tb.P) {
				return fmt.Errorf("index %d = %d of %d vertices", i, x, len(tb.P))
			}
		}
		f.batches++
		f.tris += n
		if n == f.cap {
			f.full++
		}
		recycleMesh(tb.Mesh)
	}
}

// Indexed batches keep the triangle-list batch boundaries: on the 65³
// field at 24 KiB buffers (341 triangles each) the triangles stream sends
// the 122 buffers and 2,738,160 bytes (38,030 triangles × 72 B) it sent as
// []geom.Triangle, cutting chunks that overrun a buffer into full buffers,
// and every batch indexes only its own vertices.
func TestTriangleBatchBoundariesPinned(t *testing.T) {
	leakcheck.Check(t)
	ds := testDataset(t)
	src := NewFieldSource(ds.Field(), 65, 65, 65, 4, 4, 4)
	view := View{Timestep: 0, Iso: 0.35, Width: 256, Height: 256, Camera: DefaultView(0.35).Camera}
	sink := &batchCheck{cap: (24 << 10) / geom.TriangleBytes}
	g := core.NewGraph()
	g.AddFilter("RE", func() core.Filter {
		read := &ReadFilter{Source: src, Assign: AssignByCopy(src.Chunks()), Out: StreamVoxels}
		return core.Fuse(read, &ExtractFilter{In: StreamVoxels, Out: StreamTriangles}, StreamVoxels)
	})
	g.AddFilter("Ra", func() core.Filter { return sink })
	g.Connect("RE", "Ra", StreamTriangles)
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1)
	runner, err := core.NewRunner(g, pl, core.Options{UOWs: []any{view}, BufferBytes: 24 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := st.Streams[StreamTriangles]
	if s.Buffers != 122 || s.Bytes != 2738160 || sink.batches != 122 || sink.tris != 38030 {
		t.Fatalf("triangles stream: %d buffers, %d bytes; sink saw %d batches, %d triangles; want 122, 2738160, 122, 38030",
			s.Buffers, s.Bytes, sink.batches, sink.tris)
	}
	if sink.full == 0 {
		t.Fatal("no chunk overran a buffer: the split path did not run")
	}
}
