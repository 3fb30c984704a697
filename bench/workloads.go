package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/jobd"
	"datacutter/internal/obs"
	"datacutter/internal/render"
)

// copies is a filter's transparent copy count in a workload's placement.
type copies struct {
	filter string
	n      int
}

// workload is one named input mix. The names are fixed: later issues cite
// them, and BENCHMARK.json lists them with the same one-line reasons.
type workload struct {
	name   string
	why    string
	engine string // "core", "dist" or "jobd"
	q      query
	// core engine only: the filter decomposition and its copy counts, all
	// on one host.
	config isoviz.Config
	place  []copies
}

var workloads = []workload{
	{
		name:   "iso-dense-core",
		why:    "dense iso on the core engine, RE x2 -> Ra x2 -> M, active-pixel: kernels (mcubes, raster) dominate; dataset-read and wire changes must not move it",
		engine: "core",
		q:      query{iso: denseIso, alg: isoviz.ActivePixel},
		config: isoviz.ReadExtract,
		place:  []copies{{"RE", 2}, {"Ra", 2}, {"M", 1}},
	},
	{
		name:   "iso-sparse-pushdown-core",
		why:    "sparse iso, pushdown on, fully split R -> E x2 -> Ra x2 -> M, z-buffer: kernels mostly bypassed, so prune lookups, per-frame lifecycle and full-image merge dominate",
		engine: "core",
		q:      query{iso: sparseIso, alg: isoviz.ZBuffer, pushdown: true},
		config: isoviz.FullPipeline,
		place:  []copies{{"R", 1}, {"E", 2}, {"Ra", 2}, {"M", 1}},
	},
	{
		name:   "iso-dense-dist-tcp",
		why:    "the iso-dense-core query through dist.Run on two in-process workers over loopback TCP: the gap to iso-dense-core is the dist layer (codec, flushes, acks, session setup)",
		engine: "dist",
		q:      query{iso: denseIso, alg: isoviz.ActivePixel},
	},
	{
		name:   "jobd-small-jobs",
		why:    "2 closed-loop HTTP clients submit one-frame sparse pushdown jobs to jobd with a journal: submit, fsync, queue, dispatch and dist session setup dominate a short frame",
		engine: "jobd",
		q:      query{iso: sparseIso, alg: isoviz.ActivePixel, pushdown: true},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Every engine runs under the demand-driven policy with its default queue
// and buffer sizes.
const policy = "DD"

// The dist and jobd workloads place the storage-side filter on one worker
// and raster plus merge on the other, so every triangle crosses the wire.
var (
	distHosts     = []string{"node0", "node1"}
	distMergeHost = "node1"
	distPlacement = []dist.PlacementEntry{
		{Filter: "RE", Host: "node0", Copies: 2},
		{Filter: "Ra", Host: "node1", Copies: 2},
		{Filter: "M", Host: "node1", Copies: 1},
	}
	distOptions = dist.Options{Policy: policy, Transport: "tcp"}
)

// services are the long-lived parts of the system under test that a
// workload's requests go to. start brings them up (part of setup_s), stop
// tears them down and waits for every goroutine start launched.
type services struct {
	dir     string
	store   *dataset.Store // the core engine's source; also feeds the replay
	workers map[string]*dist.Worker
	addrs   map[string]string
	served  sync.WaitGroup
	jobs    *jobd.Server
	front   *httptest.Server
	o       *obs.Observer // nil when tracing is off
}

// startServices opens the dataset and starts what the workload's engine
// needs: nothing more for core, two dist workers for dist, and for jobd
// additionally a server with an on-disk journal behind an HTTP front end.
// The observer, when non-nil, is attached to everything that accepts one.
func startServices(w workload, dir string, o *obs.Observer) (*services, error) {
	st, err := dataset.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &services{dir: dir, store: st, o: o}
	if w.engine == "core" {
		return s, nil
	}
	s.workers = make(map[string]*dist.Worker)
	s.addrs = make(map[string]string)
	for _, host := range distHosts {
		wk, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, err
		}
		if o != nil {
			wk.SetObserver(o)
		}
		s.workers[host] = wk
		s.addrs[host] = wk.Addr()
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			wk.Serve()
		}()
	}
	if w.engine != "jobd" {
		return s, nil
	}
	cfg := jobd.Config{JournalPath: filepath.Join(dir, "jobd-journal.jsonl")}
	if o != nil {
		cfg.Registry = o.Registry()
	}
	s.jobs, err = jobd.NewServer(cfg)
	if err != nil {
		s.stop()
		return nil, err
	}
	for _, host := range distHosts {
		s.jobs.RegisterWorker(host, s.addrs[host], "")
	}
	s.front = httptest.NewServer(s.jobs.Handler())
	return s, nil
}

func (s *services) stop() {
	if s.front != nil {
		s.front.Close()
	}
	if s.jobs != nil {
		s.jobs.Drain(10 * time.Second)
		s.jobs.Close()
	}
	for _, wk := range s.workers {
		wk.Close()
	}
	s.served.Wait()
	s.store.Close()
}

// ---- iso-* workloads: sessions of frames ----

// runSession executes one session — one engine Run over the given views —
// and returns the engine's stats and the image of the last frame. The
// session's construction and teardown are inside the timed region on
// purpose: frames_per_s counts them.
func (s *services) runSession(w workload, views []isoviz.View, tr *tracer, parent, frame int) (*core.Stats, *render.ZBuffer, error) {
	uows := make([]any, len(views))
	for i, v := range views {
		uows[i] = v
	}
	var stats *core.Stats
	var sinks []core.Filter
	switch w.engine {
	case "core":
		source := &isoviz.StoreSource{St: s.store}
		spec := isoviz.PipelineSpec{
			Config: w.config, Alg: w.q.alg, Source: source,
			Assign: isoviz.AssignByCopy(source.Chunks()), Pushdown: w.q.pushdown,
		}
		pl := core.NewPlacement()
		for _, c := range w.place {
			pl.Place(c.filter, "node0", c.n)
		}
		sp := tr.begin("core.NewRunner", "core", parent, frame)
		runner, err := core.NewRunner(spec.Build(), pl, core.Options{
			Policy: core.PolicyByName(policy), UOWs: uows, Obs: s.o,
		})
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("core.Run", "core", parent, frame)
		stats, err = runner.Run()
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sinks = runner.Instances("M")
	case "dist":
		spec, err := isoviz.DistGraphStore(isoviz.StoreREParams{Dir: s.dir, Pushdown: w.q.pushdown}, w.q.alg)
		if err != nil {
			return nil, nil, err
		}
		sp := tr.begin("dist.Run", "dist", parent, frame)
		stats, err = dist.RunObserved(s.addrs, spec, distPlacement, distOptions, uows, s.o)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sinks = s.workers[distMergeHost].Instances("M")
	default:
		return nil, nil, fmt.Errorf("workload %s has no sessions", w.name)
	}
	m, err := isoviz.MergeResult(sinks)
	if err != nil {
		return nil, nil, err
	}
	if len(stats.PerUOWSeconds) != len(views) {
		return nil, nil, fmt.Errorf("engine reported %d frames for %d views", len(stats.PerUOWSeconds), len(views))
	}
	return stats, m.Result(), nil
}

// sample is what a closed loop measured. One "frame" is one rendered view:
// a unit of work of a session, or — on jobd-small-jobs — one whole job.
type sample struct {
	frameMs   []float64 // per frame: Stats.PerUOWSeconds, or client-observed job latency
	wall      time.Duration
	attempted int
	failed    int
	errs      []string

	// iso-* only
	overMs []float64   // per session: outside wall − Σ frames (setup + teardown)
	stats  *core.Stats // summed over sessions (and jobs)

	// jobd only
	submitMs, queueMs, runMs, noticeMs, engineMs []float64
}

func (s *sample) fail(n int, format string, args ...any) {
	s.failed += n
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// addStats folds one run's engine stats into the sample's running sums.
func (s *sample) addStats(st *core.Stats) {
	if s.stats == nil {
		s.stats = &core.Stats{Streams: map[string]*core.StreamStats{}, Filters: map[string]*core.FilterStats{}}
	}
	for name, ss := range st.Streams {
		a := s.stats.Streams[name]
		if a == nil {
			a = &core.StreamStats{}
			s.stats.Streams[name] = a
		}
		a.Buffers += ss.Buffers
		a.Bytes += ss.Bytes
		a.Acks += ss.Acks
	}
	for name, fs := range st.Filters {
		a := s.stats.Filters[name]
		if a == nil {
			a = &core.FilterStats{}
			s.stats.Filters[name] = a
		}
		a.Copies = fs.Copies
		a.BusySeconds = addSeries(a.BusySeconds, fs.BusySeconds)
		a.ReadBlockedSeconds = addSeries(a.ReadBlockedSeconds, fs.ReadBlockedSeconds)
		a.WriteBlockedSeconds = addSeries(a.WriteBlockedSeconds, fs.WriteBlockedSeconds)
	}
}

// addSeries adds a per-copy series elementwise, growing acc as needed.
func addSeries(acc, xs []float64) []float64 {
	for len(acc) < len(xs) {
		acc = append(acc, 0)
	}
	for i, x := range xs {
		acc[i] += x
	}
	return acc
}

// load describes how long a closed loop runs: until both the duration has
// passed and the minimum number of sessions (jobs per client) is done.
type load struct {
	dur         time.Duration
	minSessions int
}

// closedLoop returns the loop that generates the workload's load.
func closedLoop(w workload) func(*services, workload, input, *viewOrder, []reference, load, *tracer) *sample {
	if w.engine == "jobd" {
		return runJobs
	}
	return runSessions
}

// runSessions is the closed loop of the iso-* workloads: one client runs
// session after session, each a fresh engine Run over eight views dealt by
// the seed, and checks every session's final image against the reference.
func runSessions(s *services, w workload, in input, order *viewOrder, refs []reference, ld load, tr *tracer) *sample {
	out := &sample{}
	start := time.Now()
	for n := 0; n < ld.minSessions || time.Since(start) < ld.dur; n++ {
		ts := order.session()
		views := make([]isoviz.View, len(ts))
		for i, t := range ts {
			views[i] = in.view(w.q.iso, t)
		}
		root := tr.begin("session", "bench", -1, n)
		t0 := time.Now()
		stats, img, err := s.runSession(w, views, tr, root, n)
		wall := time.Since(t0)
		out.attempted += len(views)
		switch {
		case err != nil:
			out.fail(len(views), "session %d: %v", n, err)
		case !img.Equal(refs[ts[len(ts)-1]].image):
			out.fail(len(views), "session %d: final image of timestep %d differs from the reference", n, ts[len(ts)-1])
		default:
			frames := 0.0
			at := t0
			for i, sec := range stats.PerUOWSeconds {
				out.frameMs = append(out.frameMs, sec*1e3)
				frames += sec * 1e3
				// Frames run back to back inside Run; their spans are laid
				// out from the engine's own durations.
				end := at.Add(time.Duration(sec * float64(time.Second)))
				tr.add(fmt.Sprintf("frame t=%d", ts[i]), w.engine, at, end, root, n)
				at = end
			}
			out.overMs = append(out.overMs, float64(wall.Nanoseconds())/1e6-frames)
			out.addStats(stats)
		}
		tr.end(root)
	}
	out.wall = time.Since(start)
	return out
}

// ---- jobd-small-jobs: closed-loop HTTP clients ----

const (
	jobClients   = 2
	pollInterval = 2 * time.Millisecond
)

// runJobs is the closed loop of jobd-small-jobs: jobClients goroutines each
// POST a one-frame job, poll it every pollInterval until it is terminal,
// verify it, and only then submit the next.
func runJobs(s *services, w workload, in input, order *viewOrder, refs []reference, ld load, tr *tracer) *sample {
	out := &sample{}
	var mu sync.Mutex // guards out and order
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for n := 0; n < ld.minSessions*framesPerSession/jobClients || time.Since(start) < ld.dur; n++ {
				mu.Lock()
				t := order.next()
				mu.Unlock()
				r := runJob(client, s, w, in.view(w.q.iso, t), refs[t], tr)
				mu.Lock()
				out.attempted++
				if r.err != nil {
					out.fail(1, "client %d job %d: %v", c, n, r.err)
				} else {
					out.frameMs = append(out.frameMs, r.latencyMs)
					out.submitMs = append(out.submitMs, r.submitMs)
					out.queueMs = append(out.queueMs, r.queueMs)
					out.runMs = append(out.runMs, r.runMs)
					out.noticeMs = append(out.noticeMs, r.noticeMs)
					out.engineMs = append(out.engineMs, r.engineMs)
					out.addStats(r.stats)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

type jobResult struct {
	err       error
	latencyMs float64 // POST sent → client sees a terminal state
	submitMs  float64 // POST round trip
	queueMs   float64 // Started − Submitted
	runMs     float64 // Finished − Started
	noticeMs  float64 // Finished → client sees it
	engineMs  float64 // the frame inside the run (Stats.PerUOWSeconds)
	stats     *core.Stats
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// runJob drives one job through the HTTP API and verifies it: it must be
// done, its triangles stream must carry exactly the bytes the replay
// counted, and the merge filter on the worker must hold the reference image.
func runJob(client *http.Client, s *services, w workload, view isoviz.View, ref reference, tr *tracer) jobResult {
	fail := func(err error) jobResult { return jobResult{err: err} }
	graph, err := isoviz.DistGraphStore(isoviz.StoreREParams{Dir: s.dir, Pushdown: w.q.pushdown}, w.q.alg)
	if err != nil {
		return fail(err)
	}
	uow, err := dist.EncodeUOW(view)
	if err != nil {
		return fail(err)
	}
	body, err := json.Marshal(jobd.JobSpec{
		Name: w.name, Graph: graph, Placement: distPlacement,
		Options: distOptions, UOWs: []dist.RawUOW{uow},
	})
	if err != nil {
		return fail(err)
	}

	t0 := time.Now()
	resp, err := client.Post(s.front.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("POST /jobs refused: %s: %s", resp.Status, bytes.TrimSpace(reply)))
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil {
		return fail(fmt.Errorf("POST /jobs reply: %w", err))
	}

	var job jobd.Job
	var t2 time.Time
	for {
		resp, err := client.Get(fmt.Sprintf("%s/jobs/%d", s.front.URL, sub.ID))
		if err != nil {
			return fail(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		t2 = time.Now()
		if err != nil {
			return fail(fmt.Errorf("GET /jobs/%d: %w", sub.ID, err))
		}
		if job.State.Terminal() {
			break
		}
		if t2.Sub(t0) > 30*time.Second {
			return fail(fmt.Errorf("job %d still %s after 30s", sub.ID, job.State))
		}
		time.Sleep(pollInterval)
	}

	if job.State != jobd.StateDone {
		return fail(fmt.Errorf("job %d ended %s: %s", sub.ID, job.State, job.Err))
	}
	if job.Stats == nil || len(job.Stats.PerUOWSeconds) != 1 {
		return fail(fmt.Errorf("job %d reported no single-frame stats", sub.ID))
	}
	want := int64(ref.counts.Triangles) * geom.TriangleBytes
	if got := job.Stats.Streams[isoviz.StreamTriangles].Bytes; got != want {
		return fail(fmt.Errorf("job %d moved %d triangle bytes, the replay counted %d", sub.ID, got, want))
	}
	m, err := isoviz.MergeResult(s.workers[distMergeHost].InstancesJob(sub.ID, "M"))
	if err != nil {
		return fail(fmt.Errorf("job %d: %w", sub.ID, err))
	}
	if !m.Result().Equal(ref.image) {
		return fail(fmt.Errorf("job %d: image of timestep %d differs from the reference", sub.ID, view.Timestep))
	}

	root := tr.add("job", "bench", t0, t2, -1, int(sub.ID))
	tr.add("jobd.submit", "jobd", t0, t1, root, int(sub.ID))
	tr.add("jobd.queue", "jobd", job.Submitted, job.Started, root, int(sub.ID))
	tr.add("jobd.run", "jobd", job.Started, job.Finished, root, int(sub.ID))
	tr.add("jobd.notice", "jobd", job.Finished, t2, root, int(sub.ID))
	return jobResult{
		latencyMs: msBetween(t0, t2),
		submitMs:  msBetween(t0, t1),
		queueMs:   msBetween(job.Submitted, job.Started),
		runMs:     msBetween(job.Started, job.Finished),
		noticeMs:  msBetween(job.Finished, t2),
		engineMs:  job.Stats.PerUOWSeconds[0] * 1e3,
		stats:     job.Stats,
	}
}
