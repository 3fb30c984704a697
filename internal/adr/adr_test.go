package adr

import (
	"fmt"
	"testing"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
	"datacutter/internal/sim"
	"datacutter/internal/volume"
)

func testSrc() *isoviz.FieldSource {
	return isoviz.NewFieldSource(volume.NewPlumeField(17, 4), 33, 33, 33, 3, 3, 3)
}

func testView() isoviz.View {
	return isoviz.View{Timestep: 1, Iso: 0.35, Width: 96, Height: 96, Camera: geom.DefaultCamera()}
}

func TestRunLocalMatchesDirectRender(t *testing.T) {
	leakcheck.Check(t)
	src := testSrc()
	view := testView()
	want := render.NewZBuffer(view.Width, view.Height)
	rr := render.NewRaster(view.Camera, view.Width, view.Height)
	for i := 0; i < src.Chunks(); i++ {
		v, err := src.Load(i, view.Timestep)
		if err != nil {
			t.Fatal(err)
		}
		var mesh geom.Mesh
		mcubes.ExtractMesh(v, view.Iso, &mesh)
		rr.DrawMesh(&mesh, want)
	}
	for _, workers := range []int{1, 2, 5} {
		got, err := RunLocal(LocalOptions{Source: src, View: view, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("ADR image differs with %d workers", workers)
		}
	}
}

func TestRunLocalMatchesPipeline(t *testing.T) {
	leakcheck.Check(t)
	// The baseline and the component-based implementation must agree on
	// output (they compute the same rendering).
	src := testSrc()
	view := testView()
	adrImg, err := RunLocal(LocalOptions{Source: src, View: view, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := isoviz.PipelineSpec{Config: isoviz.ReadExtract, Alg: isoviz.ActivePixel, Source: src, Assign: isoviz.AssignByCopy(src.Chunks())}
	pl := core.NewPlacement().Place("RE", "h0", 2).Place("Ra", "h0", 2).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{Policy: core.DemandDriven(), UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := isoviz.MergeResult(r.Instances("M"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Result().Equal(adrImg) {
		t.Fatal("ADR and DataCutter render different images")
	}
}

func TestRunLocalPropagatesErrors(t *testing.T) {
	leakcheck.Check(t)
	src := testSrc()
	bad := &failingSource{FieldSource: src}
	view := testView()
	if _, err := RunLocal(LocalOptions{Source: bad, View: view, Workers: 2}); err == nil {
		t.Fatal("expected error")
	}
}

type failingSource struct{ *isoviz.FieldSource }

func (f *failingSource) Load(i, ts int) (*volume.Volume, error) {
	if i == 2 {
		return nil, fmt.Errorf("bad sector")
	}
	return f.FieldSource.Load(i, ts)
}

func simCluster(n int) (*cluster.Cluster, []string) {
	k := sim.NewKernel()
	cl := cluster.New(k)
	var hosts []string
	for i := 0; i < n; i++ {
		h := cl.AddHost(cluster.HostSpec{
			Name: fmt.Sprintf("n%d", i), Cores: 1, Speed: 1,
			NICBandwidth: 50e6, NICOverhead: 20e-6,
			Disks: []cluster.DiskSpec{{SeekSeconds: 0.005, Bandwidth: 30e6}},
		})
		hosts = append(hosts, h.Spec.Name)
	}
	return cl, hosts
}

func simWorkload(t *testing.T) *isoviz.Workload {
	t.Helper()
	ds, err := dataset.New(dataset.Meta{
		GX: 65, GY: 65, GZ: 65, BX: 4, BY: 4, BZ: 4,
		Timesteps: 2, Files: 16, Seed: 23, Plumes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return isoviz.NewWorkload(ds, 0.35)
}

func TestRunSimCompletes(t *testing.T) {
	leakcheck.Check(t)
	cl, hosts := simCluster(4)
	w := simWorkload(t)
	dist := dataset.DistributeEven(w.DS.Files, hosts, 1)
	res, err := RunSim(cl, SimOptions{
		W: w, Dist: dist, Costs: isoviz.DefaultCosts(), Hosts: hosts,
		Views: []isoviz.View{isoviz.DefaultView(0.35)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSeconds <= 0 || res.BytesMoved <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if len(res.PerUOWSeconds) != 1 {
		t.Fatalf("per-UOW: %v", res.PerUOWSeconds)
	}
}

func TestRunSimScalesWithNodes(t *testing.T) {
	leakcheck.Check(t)
	w := simWorkload(t)
	// A small output frame keeps the serial merge phase negligible so this
	// measures compute scaling (at large frames the merge node bounds
	// speedup — the effect the paper reports as the merge bottleneck).
	view := isoviz.DefaultView(0.35)
	view.Width, view.Height = 128, 128
	mk := func(n int) float64 {
		cl, hosts := simCluster(n)
		dist := dataset.DistributeEven(w.DS.Files, hosts, 1)
		res, err := RunSim(cl, SimOptions{
			W: w, Dist: dist, Costs: isoviz.DefaultCosts(), Hosts: hosts,
			Views: []isoviz.View{view},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSeconds
	}
	t1, t4 := mk(1), mk(4)
	if t4 >= t1 {
		t.Fatalf("4 nodes (%v) not faster than 1 (%v)", t4, t1)
	}
	if t4 > t1/2 {
		t.Fatalf("poor scaling: 1 node %v, 4 nodes %v", t1, t4)
	}
}

// The paper's central heterogeneity result: ADR degrades linearly with
// background jobs on some nodes (static partition cannot shed load), and
// degrades worse than a demand-driven DataCutter configuration.
func TestRunSimDegradesWithBackgroundLoad(t *testing.T) {
	leakcheck.Check(t)
	w := simWorkload(t)
	mk := func(bg int) float64 {
		cl, hosts := simCluster(4)
		for i := 2; i < 4; i++ {
			cl.Host(hosts[i]).SetBackgroundJobs(bg)
		}
		dist := dataset.DistributeEven(w.DS.Files, hosts, 1)
		res, err := RunSim(cl, SimOptions{
			W: w, Dist: dist, Costs: isoviz.DefaultCosts(), Hosts: hosts,
			Views: []isoviz.View{isoviz.DefaultView(0.35)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalSeconds
	}
	t0, t4, t16 := mk(0), mk(4), mk(16)
	if !(t0 < t4 && t4 < t16) {
		t.Fatalf("ADR should degrade with load: %v %v %v", t0, t4, t16)
	}
	if t16 < 3*t0 {
		t.Fatalf("16 bg jobs should hurt a static partition badly: %v vs %v", t16, t0)
	}
}

func TestRunSimValidation(t *testing.T) {
	leakcheck.Check(t)
	cl, _ := simCluster(2)
	w := simWorkload(t)
	if _, err := RunSim(cl, SimOptions{W: w, Hosts: nil}); err == nil {
		t.Fatal("no hosts accepted")
	}
	if _, err := RunSim(cl, SimOptions{W: w, Hosts: []string{"ghost"}}); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestRunSimMultiUOW(t *testing.T) {
	leakcheck.Check(t)
	cl, hosts := simCluster(2)
	w := simWorkload(t)
	dist := dataset.DistributeEven(w.DS.Files, hosts, 1)
	v0, v1 := isoviz.DefaultView(0.35), isoviz.DefaultView(0.35)
	v1.Timestep = 1
	res, err := RunSim(cl, SimOptions{
		W: w, Dist: dist, Costs: isoviz.DefaultCosts(), Hosts: hosts,
		Views: []isoviz.View{v0, v1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerUOWSeconds) != 2 {
		t.Fatalf("per-UOW: %v", res.PerUOWSeconds)
	}
}
