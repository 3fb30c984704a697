package jobd_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datacutter/internal/conformance"
	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/jobd"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// startMesh boots n persistent in-process workers named w0..w<n-1> and
// returns their names, their dist addresses, and a registration function.
func startMesh(t *testing.T, n int) ([]string, []string, func(s *jobd.Server)) {
	t.Helper()
	names := make([]string, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(w.Close)
		names[i] = fmt.Sprintf("w%d", i)
		addrs[i] = w.Addr()
	}
	return names, addrs, func(s *jobd.Server) {
		for i := range names {
			s.RegisterWorker(names[i], addrs[i], "")
		}
	}
}

func newServer(t *testing.T, cfg jobd.Config) *jobd.Server {
	t.Helper()
	s, err := jobd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// confJobSpec packages a conformance DistJob as a jobd submission.
func confJobSpec(j *conformance.DistJob, tenant, name string) jobd.JobSpec {
	return jobd.JobSpec{
		Name: name, Tenant: tenant,
		Graph: j.Graph, Placement: j.Placement,
		Options: j.Options(), UOWs: j.UOWs,
	}
}

// Two seeded conformance pipelines submitted to one server over one shared
// worker pair: both must complete, both must satisfy the full delivery
// oracles against their own recorders, and each job's isolated metrics
// registry must reflect only its own units of work.
func TestConcurrentJobsOracleClean(t *testing.T) {
	leakcheck.Check(t)
	mesh, _, register := startMesh(t, 2)
	s := newServer(t, jobd.Config{})
	register(s)

	seeds := []int64{11, 23}
	jobs := make([]*conformance.DistJob, len(seeds))
	ids := make([]uint64, len(seeds))
	for i, seed := range seeds {
		spec := conformance.Generate(seed, conformance.GenConfig{MaxHosts: 2})
		j, err := conformance.NewDistJob(spec, mesh)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		jobs[i] = j
		id, err := s.Submit(confJobSpec(j, fmt.Sprintf("tenant%d", i), fmt.Sprintf("seed%d", seed)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	for i, id := range ids {
		res, err := s.Await(id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != jobd.StateDone {
			t.Fatalf("job %d state %s: %s", id, res.State, res.Err)
		}
		if v := jobs[i].Check(res.Stats); len(v) > 0 {
			t.Errorf("job %d (seed %d) violated %d oracle(s):\n%v", id, seeds[i], len(v), v)
		}
		// Per-job metrics isolation: each job's registry counted exactly its
		// own units of work, not the other job's.
		m, ok := s.JobMetrics(id)
		if !ok {
			t.Fatalf("no metrics for job %d", id)
		}
		h, ok := m["coord.uow_seconds"].(obs.HistogramSnapshot)
		if !ok {
			t.Fatalf("job %d: no coord.uow_seconds histogram (metrics: %v)", id, m)
		}
		if want := int64(jobs[i].Spec.UOWs); h.Count != want {
			t.Errorf("job %d counted %d UOWs in its registry, want %d", id, h.Count, want)
		}
	}
}

// A server killed with a queued job must re-run it from the journal after
// restart; a finished job must not run again.
func TestJournalRestartRecovery(t *testing.T) {
	leakcheck.Check(t)
	mesh, _, register := startMesh(t, 2)
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")

	spec := conformance.Generate(7, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, mesh)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// First server: submit but register no workers, so the job stays
	// queued; then die (Close without Drain — an unclean stop).
	s1, err := jobd.NewServer(jobd.Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(confJobSpec(j, "", "restartme"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s1.Get(id); got.State != jobd.StateQueued {
		t.Fatalf("job state %s before workers exist, want queued", got.State)
	}
	s1.Close()

	// Second server: the journaled job is re-queued and runs to completion
	// once the workers register.
	s2 := newServer(t, jobd.Config{JournalPath: journal})
	got, ok := s2.Get(id)
	if !ok {
		t.Fatalf("restarted server does not know job %d", id)
	}
	if got.State != jobd.StateQueued {
		t.Fatalf("replayed job state %s, want queued", got.State)
	}
	if got.Spec.Name != "restartme" {
		t.Fatalf("replayed spec lost its name: %+v", got.Spec)
	}
	register(s2)
	res, err := s2.Await(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateDone {
		t.Fatalf("replayed job state %s: %s", res.State, res.Err)
	}
	if v := j.Check(res.Stats); len(v) > 0 {
		t.Errorf("replayed job violated oracles:\n%v", v)
	}
	if !s2.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	s2.Close()

	// Third server: the done record holds; nothing is re-queued.
	s3 := newServer(t, jobd.Config{JournalPath: journal})
	if _, ok := s3.Get(id); ok {
		t.Fatal("finished job re-queued after a clean run")
	}
}

func TestQuotaAdmission(t *testing.T) {
	// No workers registered: submissions queue up and stay queued.
	s := newServer(t, jobd.Config{
		JournalPath: filepath.Join(t.TempDir(), "jobs.jsonl"),
		Quotas: map[string]jobd.Quota{
			"small": {MaxQueued: 2},
			"tiny":  {MaxQueuedBytes: 1},
		},
	})
	spec := conformance.Generate(3, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, []string{"w0", "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(confJobSpec(j, "small", "ok")); err != nil {
			t.Fatalf("submission %d under quota rejected: %v", i, err)
		}
	}
	if _, err := s.Submit(confJobSpec(j, "small", "over")); !errors.Is(err, jobd.ErrQuota) {
		t.Fatalf("queue-depth overflow: err = %v, want ErrQuota", err)
	}
	// A different tenant is unaffected by small's quota.
	if _, err := s.Submit(confJobSpec(j, "other", "fine")); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	// Byte budget: this spec encodes far more than one byte.
	if _, err := s.Submit(confJobSpec(j, "tiny", "big")); !errors.Is(err, jobd.ErrQuota) {
		t.Fatalf("byte-budget overflow: err = %v, want ErrQuota", err)
	}
	// Admission metrics moved.
	reg := s.Metrics()
	if got := reg["jobd.jobs_rejected"].(int64); got != 2 {
		t.Fatalf("jobd.jobs_rejected = %d, want 2", got)
	}
	if got := reg["jobd.queue_depth"].(int64); got != 3 {
		t.Fatalf("jobd.queue_depth = %d, want 3", got)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	s := newServer(t, jobd.Config{})
	if _, err := s.Submit(jobd.JobSpec{}); !errors.Is(err, jobd.ErrInvalid) {
		t.Fatalf("empty spec: err = %v, want ErrInvalid", err)
	}
	// Dist options no run can use are refused at admission, not after the
	// job has burnt its retry budget failing at dispatch.
	spec := conformance.Generate(5, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, []string{"w0", "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for name, bad := range map[string]func(*dist.Options){
		"unknown policy":    func(o *dist.Options) { o.Policy = "bogus" },
		"negative QueueCap": func(o *dist.Options) { o.QueueCap = -1 },
		"ring transport":    func(o *dist.Options) { o.Transport = "ring" },
	} {
		js := confJobSpec(j, "", name)
		js.MaxRetries = 3
		bad(&js.Options)
		if id, err := s.Submit(js); !errors.Is(err, jobd.ErrInvalid) {
			t.Errorf("%s: Submit = (%d, %v), want ErrInvalid", name, id, err)
		}
	}
}

// A job every worker refuses at setup for an application reason — here a
// queued job from an old journal, naming an isoviz filter kind that is no
// longer registered — fails without charging a worker: three of them leave
// the fleet unstruck, not quarantined.
func TestRefusedSetupChargesNoWorker(t *testing.T) {
	leakcheck.Check(t)
	names, _, register := startMesh(t, 2)
	s := newServer(t, jobd.Config{QuarantineStrikes: 3, ProbeInterval: time.Hour})
	register(s)
	spec := jobd.JobSpec{
		Name: "retired",
		Graph: dist.GraphSpec{
			Filters: []dist.FilterSpec{
				{Name: "RE", Kind: "isoviz.RE-store", Params: []byte(`{"Dir":"plume"}`)},
				{Name: "M", Kind: "isoviz.M"},
			},
			Streams: []core.StreamSpec{{Name: "pixels", From: "RE", To: "M"}},
		},
		Placement: []dist.PlacementEntry{
			{Filter: "RE", Host: names[0], Copies: 1},
			{Filter: "M", Host: names[1], Copies: 1},
		},
	}
	for i := 0; i < 3; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Await(id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != jobd.StateFailed || !strings.Contains(res.Err, "not registered") {
			t.Errorf("job %d: state %s, error %q; want failed, kind not registered", i, res.State, res.Err)
		}
	}
	for _, w := range s.Workers() {
		if w.Strikes != 0 || w.Quarantined {
			t.Errorf("worker %s after three refused setups: %d strikes, quarantined %v", w.Host, w.Strikes, w.Quarantined)
		}
	}
}

func TestDrainRefusesSubmissions(t *testing.T) {
	leakcheck.Check(t)
	s := newServer(t, jobd.Config{})
	if !s.Drain(time.Second) {
		t.Fatal("idle server did not drain")
	}
	spec := conformance.Generate(5, conformance.GenConfig{MaxHosts: 2})
	j, err := conformance.NewDistJob(spec, []string{"w0", "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := s.Submit(confJobSpec(j, "", "late")); !errors.Is(err, jobd.ErrDraining) {
		t.Fatalf("submission while draining: err = %v, want ErrDraining", err)
	}
}

// Per-tenant concurrency: with MaxRunning 1 for the tenant and two jobs
// queued, the second only runs after the first finishes.
func TestTenantMaxRunningSerializes(t *testing.T) {
	leakcheck.Check(t)
	mesh, _, register := startMesh(t, 2)
	s := newServer(t, jobd.Config{
		Quotas: map[string]jobd.Quota{"serial": {MaxRunning: 1}},
	})
	register(s)

	var ids []uint64
	var jobs []*conformance.DistJob
	for _, seed := range []int64{31, 37} {
		spec := conformance.Generate(seed, conformance.GenConfig{MaxHosts: 2})
		j, err := conformance.NewDistJob(spec, mesh)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		jobs = append(jobs, j)
		id, err := s.Submit(confJobSpec(j, "serial", "s"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var finished [2]time.Time
	var started [2]time.Time
	for i, id := range ids {
		res, err := s.Await(id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != jobd.StateDone {
			t.Fatalf("job %d state %s: %s", id, res.State, res.Err)
		}
		if v := jobs[i].Check(res.Stats); len(v) > 0 {
			t.Errorf("job %d violated oracles:\n%v", id, v)
		}
		started[i], finished[i] = res.Started, res.Finished
	}
	if started[1].Before(finished[0]) {
		t.Fatalf("tenant limited to 1 running job, but job 2 started %v before job 1 finished %v",
			started[1], finished[0])
	}
}

// Drain with a job in flight: the running job completes, a submission
// racing the drain is refused, and Drain reports a clean stop.
func TestDrainCompletesInFlight(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	s := newServer(t, jobd.Config{})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	// ~500ms of slow writes: long enough to drain around.
	id, err := s.Submit(intJobSpec("jobdtest.slowsrc", 10, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", 15*time.Second, func() bool {
		j, _ := s.Get(id)
		return j.State == jobd.StateRunning
	})
	if !s.Drain(30 * time.Second) {
		t.Fatal("drain timed out with one short job in flight")
	}
	res, ok := s.Get(id)
	if !ok || res.State != jobd.StateDone {
		t.Fatalf("in-flight job after drain: state %s err %q", res.State, res.Err)
	}
	if _, err := s.Submit(intJobSpec("jobdtest.src", 5, "a", "b")); !errors.Is(err, jobd.ErrDraining) {
		t.Fatalf("submission after drain: err = %v, want ErrDraining", err)
	}
}

// The dcworker second-signal path at the library level: Drain with active
// sessions times out (reporting the unclean state), then Close hard-aborts
// them — the job fails rather than hanging.
func TestWorkerDrainTimeoutThenCloseAborts(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	s := newServer(t, jobd.Config{})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	spec := detectFast(intJobSpec("jobdtest.slowsrc", 40, "a", "b")) // ~2s of writes
	spec.MaxRetries = -1                                             // keep the failure terminal
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", 15*time.Second, func() bool {
		j, _ := s.Get(id)
		return j.State == jobd.StateRunning
	})
	// A job is running from dispatch on; the worker's session comes later.
	waitFor(t, "session on a", 15*time.Second, func() bool { return len(wa.Instances("S")) > 0 })
	// First signal: graceful drain, but the session outlives the timeout.
	if wa.Drain(100 * time.Millisecond) {
		t.Fatal("drain reported clean with a session mid-stream")
	}
	// Second signal: hard abort.
	wa.Close()
	res, err := s.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateFailed {
		t.Fatalf("job after worker hard-abort: state %s err %q", res.State, res.Err)
	}
}
