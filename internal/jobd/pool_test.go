package jobd_test

import (
	"runtime"
	"testing"
	"time"

	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/jobd"
	"datacutter/internal/leakcheck"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// restartWorker serves a fresh worker on a killed one's address, retrying
// briefly while the port is released.
func restartWorker(t *testing.T, addr string) *dist.Worker {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		w, err := dist.NewWorker(addr)
		if err == nil {
			go w.Serve()
			t.Cleanup(w.Close)
			return w
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitJob submits spec and waits for the job to end.
func awaitJob(t *testing.T, s *jobd.Server, spec jobd.JobSpec) jobd.Job {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Await(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// A worker killed while the server's link to it idles, and restarted on
// the same address, costs the next job nothing: its setup redials, the job
// runs once and the worker takes no strike. Left dead, the worker fails
// the next job within one setup bound and takes the strike.
func TestJobdChaosPooledLinkWorkerRestart(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	// No probe runs: one between a kill and the next job would hold the job
	// back as unhealthy instead of letting its setup meet the dead worker.
	s := newServer(t, jobd.Config{Registry: chaosRegistry(t), QuarantineStrikes: 10, ProbeInterval: time.Hour})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")
	spec := detectFast(intJobSpec("jobdtest.src", 4, "a", "b"))
	spec.MaxRetries = -1

	if j := awaitJob(t, s, spec); j.State != jobd.StateDone {
		t.Fatalf("job 1 ended %s: %s", j.State, j.Err)
	}
	wb.Kill()
	wb = restartWorker(t, wb.Addr())
	j := awaitJob(t, s, spec)
	if j.State != jobd.StateDone || j.Attempts != 0 {
		t.Fatalf("job 2 after the restart ended %s after %d failed attempts: %s", j.State, j.Attempts, j.Err)
	}
	if sink := wb.InstancesJob(j.ID, "K")[0].(*jobdSink); sink.Seen != 4 {
		t.Fatalf("the restarted worker's sink saw %d buffers, want 4", sink.Seen)
	}
	if w, _ := workerRecord(s, "b"); w.Strikes != 0 {
		t.Fatalf("the restarted worker took %d strikes", w.Strikes)
	}

	wb.Kill()
	j = awaitJob(t, s, spec)
	// One setup bound: three missed 100 ms beats plus the setup's 2 s grace.
	if d := j.Finished.Sub(j.Started); j.State != jobd.StateFailed || d > 2300*time.Millisecond {
		t.Fatalf("job 3 on the dead worker ended %s after %v: %s", j.State, d, j.Err)
	}
	if w, _ := workerRecord(s, "b"); w.Strikes != 1 {
		t.Fatalf("the dead worker took %d strikes, want 1", w.Strikes)
	}
}

// Close closes the server's idle worker links: the leak check fails on
// the flusher of any pooled link left open. Three overlapping jobs leave
// three links per worker in the pool, more than the check's slack.
func TestJobdChaosCloseReleasesPooledLinks(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	s, err := jobd.NewServer(jobd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")
	var ids []uint64
	for range 3 {
		id, err := s.Submit(intJobSpec("jobdtest.slowsrc", 4, "a", "b"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if j, err := s.Await(id, 30*time.Second); err != nil || j.State != jobd.StateDone {
			t.Fatalf("job %d ended %s (%v): %s", id, j.State, err, j.Err)
		}
	}
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	s.Close()
}

// Once more than endedRetention jobs have ended on a worker, each job that
// ends releases the merge planes of the one that left retention, and the
// next job's M accumulates on them: a warm job allocates a 512x512 plane
// pair less than a job before retention filled, and less than one pair in
// all (under -race, instrumentation alone allocates about that much). Every
// job's image must be right, the newest included.
func TestJobdWarmJobsReuseMergePlanes(t *testing.T) {
	leakcheck.Check(t)
	p := isoviz.FieldREParams{Seed: 17, Plumes: 4, GX: 17, GY: 17, GZ: 17, BX: 2, BY: 2, BZ: 2}
	view := isoviz.View{Timestep: 1, Iso: 0.35, Width: 512, Height: 512, Camera: geom.DefaultCamera()}
	want := render.NewZBuffer(view.Width, view.Height)
	rr := render.NewRaster(view.Camera, view.Width, view.Height)
	src := isoviz.NewFieldSource(volume.NewPlumeField(p.Seed, p.Plumes), p.GX, p.GY, p.GZ, p.BX, p.BY, p.BZ)
	for i := range src.Chunks() {
		v, err := src.Load(i, view.Timestep)
		if err != nil {
			t.Fatal(err)
		}
		var mesh geom.Mesh
		mcubes.ExtractMesh(v, view.Iso, &mesh)
		rr.DrawMesh(&mesh, want)
	}
	graph, err := isoviz.ReadExtract.DistGraph(isoviz.ActivePixel, nil, &p)
	if err != nil {
		t.Fatal(err)
	}
	uow, err := dist.EncodeUOW(view)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobd.JobSpec{
		Graph: graph, UOWs: []dist.RawUOW{uow},
		Placement: []dist.PlacementEntry{
			{Filter: "RE", Host: "a", Copies: 1}, {Filter: "Ra", Host: "a", Copies: 1},
			{Filter: "Ra", Host: "b", Copies: 1}, {Filter: "M", Host: "b", Copies: 1},
		},
	}
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	s := newServer(t, jobd.Config{})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	// dist's endedRetention, and jobs past it. Job 0 also dials the
	// workers, so the cold jobs measured are 1..retention.
	const retention, warm = 8, 6
	var ms runtime.MemStats
	var cold, hot uint64
	for n := range retention + 1 + warm {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		j := awaitJob(t, s, spec)
		runtime.ReadMemStats(&ms)
		switch {
		case n > retention:
			hot += ms.TotalAlloc - before
		case n > 0:
			cold += ms.TotalAlloc - before
		}
		if j.State != jobd.StateDone {
			t.Fatalf("job %d ended %s: %s", j.ID, j.State, j.Err)
		}
		m, err := isoviz.MergeResult(wb.InstancesJob(j.ID, "M"))
		if err != nil {
			t.Fatal(err)
		}
		if !m.Result().Equal(want) {
			t.Fatalf("job %d: the merged image differs from the reference", j.ID)
		}
	}
	planes := uint64(view.Width * view.Height * render.ZPixelBytes)
	cold, hot = cold/retention, hot/warm
	t.Logf("a job allocates %d bytes before retention fills, %d after", cold, hot)
	if hot+planes*3/4 > cold {
		t.Errorf("a warm job allocates %d bytes, a cold one %d: want a plane pair (%d) less", hot, cold, planes)
	}
	if !raceEnabled && hot >= planes {
		t.Errorf("a warm job allocates %d bytes, want < %d (one plane pair)", hot, planes)
	}
}
