package jobd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datacutter/internal/conformance"
	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/faults"
	"datacutter/internal/jobd"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// Service-level chaos tests: deterministic fault injection (internal/faults
// and hard worker kills) against the jobd resilience layer — retry with
// journaled backoff, worker quarantine and half-open reinstatement,
// deadlines, cancellation, and load shedding. The CI chaos-jobd lane runs
// exactly these (-run 'TestJobdChaos') under the race detector and archives
// the server metrics dumps on failure.

// jobdSrc writes bytes 0..n-1 on stream "ints" (bytes 0, 1, … until a
// write fails when n < 0), optionally sleeping between writes (the slow
// variants keep a session running long enough to cancel or deadline it).
type jobdSrc struct {
	core.BaseFilter
	n     int
	delay time.Duration
}

func (s *jobdSrc) Process(ctx core.Ctx) error {
	for i := 0; s.n < 0 || i < s.n; i++ {
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		if err := ctx.Write("ints", core.Buffer{Payload: []byte{byte(i)}, Size: 8}); err != nil {
			return err
		}
	}
	return nil
}

// jobdSink drains "ints" and remembers what it saw.
type jobdSink struct {
	core.BaseFilter
	Seen, Sum int
}

func (k *jobdSink) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read("ints")
		if !ok {
			return nil
		}
		k.Seen++
		k.Sum += int(b.Payload.([]byte)[0])
	}
}

func init() {
	dist.RegisterFilter("jobdtest.src", func(p []byte) (core.Filter, error) {
		return &jobdSrc{n: int(p[0])}, nil
	})
	dist.RegisterFilter("jobdtest.slowsrc", func(p []byte) (core.Filter, error) {
		return &jobdSrc{n: int(p[0]), delay: 50 * time.Millisecond}, nil
	})
	dist.RegisterFilter("jobdtest.endlesssrc", func([]byte) (core.Filter, error) {
		return &jobdSrc{n: -1, delay: 50 * time.Millisecond}, nil
	})
	dist.RegisterFilter("jobdtest.sink", func([]byte) (core.Filter, error) {
		return &jobdSink{}, nil
	})
}

// chaosWorker boots one worker, optionally with a fault plan installed
// before it serves.
func chaosWorker(t *testing.T, plan string) *dist.Worker {
	t.Helper()
	w, err := dist.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if plan != "" {
		p, err := faults.ParsePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(p.Injector())
	}
	go w.Serve()
	t.Cleanup(w.Close)
	return w
}

// chaosRegistry builds the server registry and arranges for it to be
// dumped to $CHAOS_METRICS_DIR at cleanup (the CI chaos-jobd lane archives
// that directory when the lane fails).
func chaosRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	t.Cleanup(func() {
		dir := os.Getenv("CHAOS_METRICS_DIR")
		if dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chaos metrics dir: %v", err)
			return
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Logf("chaos metrics dump: %v", err)
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "_") + ".json"
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Logf("chaos metrics write: %v", err)
		}
	})
	return reg
}

// intJobSpec is a two-host pipeline with a deterministic frame count: the
// sink host receives exactly n data frames, so counted fault directives
// (kill=data:N, wedge=data:N:DUR) trigger mid-job by construction. It runs
// on the default heartbeat; a test that asserts failure detection opts into
// fast beats with detectFast.
func intJobSpec(srcKind string, n int, srcHost, sinkHost string) jobd.JobSpec {
	return jobd.JobSpec{
		Name: "chaos",
		Graph: dist.GraphSpec{
			Filters: []dist.FilterSpec{
				{Name: "S", Kind: srcKind, Params: []byte{byte(n)}},
				{Name: "K", Kind: "jobdtest.sink"},
			},
			Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "K"}},
		},
		Placement: []dist.PlacementEntry{
			{Filter: "S", Host: srcHost, Copies: 1},
			{Filter: "K", Host: sinkHost, Copies: 1},
		},
	}
}

// detectFast gives spec 100 ms heartbeats, three missed beats to a dead
// host: for the tests that kill or wedge a worker and wait for the
// coordinator to notice.
func detectFast(spec jobd.JobSpec) jobd.JobSpec {
	spec.Options.HeartbeatInterval = 100 * time.Millisecond
	spec.Options.HeartbeatMisses = 3
	return spec
}

func waitFor(t *testing.T, what string, d time.Duration, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !f() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func workerRecord(s *jobd.Server, host string) (jobd.WorkerInfo, bool) {
	for _, w := range s.Workers() {
		if w.Host == host {
			return w, true
		}
	}
	return jobd.WorkerInfo{}, false
}

// The acceptance kill scenario: a fault plan crashes the sink worker after
// its 5th data frame, mid-job. The failed run is charged to that worker
// (quarantined at one strike), the job re-queues with backoff, a
// replacement worker registered under the same name sits out the
// quarantine until the half-open probe reinstates it, and the retried job
// converges to done with the full delivery landing on the replacement.
func TestJobdChaosKillQuarantineReinstate(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "kill=data:5")
	reg := chaosRegistry(t)
	s := newServer(t, jobd.Config{
		Registry:          reg,
		RetryBackoff:      50 * time.Millisecond,
		RetryBackoffMax:   200 * time.Millisecond,
		QuarantineStrikes: 1,
		Probation:         250 * time.Millisecond,
		ProbeInterval:     50 * time.Millisecond,
	})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	const n = 20
	spec := detectFast(intJobSpec("jobdtest.src", n, "a", "b"))
	spec.MaxRetries = 3
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The failed run must quarantine the killed worker.
	waitFor(t, "worker b quarantined", 15*time.Second, func() bool {
		w, ok := workerRecord(s, "b")
		return ok && w.Quarantined
	})
	if got := reg.Counter("jobd.workers_quarantined").Value(); got < 1 {
		t.Fatalf("jobd.workers_quarantined = %d, want >= 1", got)
	}
	if got := reg.Counter("jobd.jobs_retried").Value(); got < 1 {
		t.Fatalf("jobd.jobs_retried = %d, want >= 1", got)
	}

	// A replacement worker re-announces the same placement name. The strike
	// record survives registration: the job must wait for the half-open
	// probe to reinstate the name, then retry onto the replacement.
	wb2 := chaosWorker(t, "")
	s.RegisterWorker("b", wb2.Addr(), "")

	res, err := s.Await(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateDone {
		t.Fatalf("job state %s after retries: %s", res.State, res.Err)
	}
	if res.Attempts < 1 {
		t.Fatalf("done job recorded %d attempts, want >= 1", res.Attempts)
	}
	if got := reg.Counter("jobd.workers_reinstated").Value(); got < 1 {
		t.Fatalf("jobd.workers_reinstated = %d, want >= 1", got)
	}
	w, _ := workerRecord(s, "b")
	if w.Quarantined || w.Strikes != 0 {
		t.Fatalf("reinstated worker record: %+v", w)
	}
	// At-least-once convergence: the replacement's sink saw the complete
	// stream (the killed attempt's partial delivery died with its worker).
	sink := wb2.Instances("K")[0].(*jobdSink)
	if sink.Seen != n || sink.Sum != n*(n-1)/2 {
		t.Fatalf("replacement sink saw %d (sum %d), want %d (sum %d)", sink.Seen, sink.Sum, n, n*(n-1)/2)
	}
}

// A wedge (frozen process: open sockets, stalled heartbeats) fails the
// first attempt via liveness detection, but the worker recovers before the
// backoff elapses: the retry succeeds on the SAME worker, one strike shy
// of quarantine, and the successful run clears its record.
func TestJobdChaosWedgeRetrySameWorker(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "wedge=data:5:800ms")
	reg := chaosRegistry(t)
	s := newServer(t, jobd.Config{
		Registry:          reg,
		RetryBackoff:      1200 * time.Millisecond, // past the wedge window
		RetryBackoffMax:   2 * time.Second,
		QuarantineStrikes: 3,
		ProbeInterval:     100 * time.Millisecond,
	})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	const n = 20
	spec := detectFast(intJobSpec("jobdtest.src", n, "a", "b"))
	spec.MaxRetries = 3
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Await(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateDone {
		t.Fatalf("job state %s after wedge: %s", res.State, res.Err)
	}
	if res.Attempts < 1 {
		t.Fatalf("job recorded %d attempts, want >= 1 (wedge never failed a run)", res.Attempts)
	}
	if got := reg.Counter("jobd.jobs_retried").Value(); got < 1 {
		t.Fatalf("jobd.jobs_retried = %d, want >= 1", got)
	}
	if got := reg.Counter("jobd.workers_quarantined").Value(); got != 0 {
		t.Fatalf("jobd.workers_quarantined = %d, want 0 (one strike is below the bound)", got)
	}
	// The successful retry on the same worker cleared its strike record.
	w, _ := workerRecord(s, "b")
	if w.Strikes != 0 || w.Quarantined {
		t.Fatalf("worker record after rewarded success: %+v", w)
	}
	// The retried session's sink instance received the complete stream.
	complete := false
	for _, inst := range wb.Instances("K") {
		if k := inst.(*jobdSink); k.Seen == n && k.Sum == n*(n-1)/2 {
			complete = true
		}
	}
	if !complete {
		t.Fatal("no sink instance on the recovered worker saw the complete stream")
	}
}

// A conformance pipeline whose worker dies between dispatch and session
// setup converges to done within its retry budget once a replacement
// registers, and the run satisfies the relaxed at-least-once delivery
// oracle — the correct oracle for a job whose failed attempts may have
// delivered partial traffic.
func TestJobdChaosRetryConvergesAtLeastOnce(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	mesh := []string{"a", "b"}
	workers := map[string]*dist.Worker{"a": wa, "b": wb}

	// Find a seeded spec that actually uses both hosts.
	var dj *conformance.DistJob
	for seed := int64(50); ; seed++ {
		spec := conformance.Generate(seed, conformance.GenConfig{MaxHosts: 2})
		j, err := conformance.NewDistJob(spec, mesh)
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Hosts) == 2 {
			dj = j
			break
		}
		j.Close()
		if seed > 200 {
			t.Fatal("no two-host conformance spec in seed range")
		}
	}
	defer dj.Close()

	reg := chaosRegistry(t)
	// A long probe interval keeps the prober from hiding the dead worker:
	// the dispatcher must run into it and the retry budget absorb it.
	s := newServer(t, jobd.Config{
		Registry:          reg,
		RetryBackoff:      100 * time.Millisecond,
		RetryBackoffMax:   time.Second,
		QuarantineStrikes: 10,
		ProbeInterval:     time.Hour,
	})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	// Kill the job's second host before submitting: the first attempt
	// dispatches against a dead address and fails, attributed to that host.
	victim := dj.Hosts[1]
	workers[victim].Kill()

	spec := confJobSpec(dj, "chaos", "at-least-once")
	spec.MaxRetries = 4
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first failed attempt", 20*time.Second, func() bool {
		j, ok := s.Get(id)
		return ok && j.Attempts >= 1
	})
	if w, ok := workerRecord(s, victim); !ok || w.Strikes < 1 {
		t.Fatalf("victim %s carries no strikes after the attributed failure: %+v", victim, w)
	}

	// Register a replacement under the victim's name and let the retry run.
	wrepl := chaosWorker(t, "")
	s.RegisterWorker(victim, wrepl.Addr(), "")
	res, err := s.Await(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateDone {
		t.Fatalf("job state %s within budget of 4 retries: %s", res.State, res.Err)
	}
	if got := reg.Counter("jobd.jobs_retried").Value(); got < 1 {
		t.Fatalf("jobd.jobs_retried = %d, want >= 1", got)
	}
	if v := dj.CheckAtLeastOnce(res.Stats); len(v) > 0 {
		t.Errorf("retried job violated the at-least-once oracle:\n%v", v)
	}
}

// A queued job whose TTL passes before any worker can take it fails with a
// deadline-attributed event, driven purely by the dispatcher's timer (no
// submissions or probes kick the loop in between).
func TestJobdChaosDeadlineQueued(t *testing.T) {
	leakcheck.Check(t)
	reg := chaosRegistry(t)
	s := newServer(t, jobd.Config{Registry: reg})
	spec := intJobSpec("jobdtest.src", 5, "a", "b") // no such workers
	spec.Deadline = 150 * time.Millisecond
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Await(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateFailed || !strings.Contains(res.Err, "deadline") {
		t.Fatalf("expired queued job: state %s err %q", res.State, res.Err)
	}
	events, _ := s.Events(id)
	found := false
	for _, e := range events {
		if strings.Contains(e.Msg, "deadline exceeded while queued") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadline-attributed event: %+v", events)
	}
	if got := reg.Counter("jobd.jobs_deadline_exceeded").Value(); got != 1 {
		t.Fatalf("jobd.jobs_deadline_exceeded = %d, want 1", got)
	}
}

// A running job past its TTL has its dist session cancelled through the
// run context and fails with a deadline error — without consuming its
// retry budget on the way out.
func TestJobdChaosDeadlineRunning(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	reg := chaosRegistry(t)
	s := newServer(t, jobd.Config{Registry: reg})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")

	// The source writes until the deadline aborts it. The TTL leaves a
	// loaded host time to dispatch before it passes, so it expires while
	// the job is running, not while it is queued.
	spec := intJobSpec("jobdtest.endlesssrc", 0, "a", "b")
	spec.Deadline = 2 * time.Second
	spec.MaxRetries = 3
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateFailed || !strings.Contains(res.Err, "cancel") {
		t.Fatalf("deadlined running job: state %s err %q", res.State, res.Err)
	}
	if res.Attempts != 0 {
		t.Fatalf("deadline consumed the retry budget: %d attempts", res.Attempts)
	}
	if got := reg.Counter("jobd.jobs_deadline_exceeded").Value(); got != 1 {
		t.Fatalf("jobd.jobs_deadline_exceeded = %d, want 1", got)
	}
	if got := reg.Counter("jobd.jobs_retried").Value(); got != 0 {
		t.Fatalf("jobd.jobs_retried = %d, want 0", got)
	}
}

// DELETE /jobs/{id} cancels: a running job is torn down through the abort
// protocol and lands in cancelled; a queued job cancels immediately; a
// terminal job answers 409; an unknown id 404.
func TestJobdChaosCancelHTTP(t *testing.T) {
	leakcheck.Check(t)
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "")
	reg := chaosRegistry(t)
	s := newServer(t, jobd.Config{Registry: reg})
	s.RegisterWorker("a", wa.Addr(), "")
	s.RegisterWorker("b", wb.Addr(), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	httpDelete := func(url string, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("DELETE %s = %d, want %d: %s", url, resp.StatusCode, want, buf.String())
		}
		return buf.Bytes()
	}

	// Running job: slow enough to catch mid-flight.
	id, err := s.Submit(intJobSpec("jobdtest.slowsrc", 40, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", 15*time.Second, func() bool {
		j, _ := s.Get(id)
		return j.State == jobd.StateRunning
	})
	httpDelete(fmt.Sprintf("%s/jobs/%d", ts.URL, id), http.StatusAccepted)
	res, err := s.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateCancelled {
		t.Fatalf("cancelled running job: state %s err %q", res.State, res.Err)
	}
	// Cancelling again: terminal conflict.
	httpDelete(fmt.Sprintf("%s/jobs/%d", ts.URL, id), http.StatusConflict)
	httpDelete(ts.URL+"/jobs/99999", http.StatusNotFound)

	// Queued job (placed on a host that does not exist) cancels in place.
	qid, err := s.Submit(intJobSpec("jobdtest.src", 5, "nope", "nada"))
	if err != nil {
		t.Fatal(err)
	}
	var snap jobd.Job
	if err := json.Unmarshal(httpDelete(fmt.Sprintf("%s/jobs/%d", ts.URL, qid), http.StatusAccepted), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != jobd.StateCancelled {
		t.Fatalf("cancelled queued job snapshot: %+v", snap)
	}
	if got := reg.Counter("jobd.jobs_cancelled").Value(); got != 2 {
		t.Fatalf("jobd.jobs_cancelled = %d, want 2", got)
	}
}

// Load shedding: a full global queue and an over-age tenant backlog both
// reject with ErrOverload — 503 + Retry-After over HTTP — and count sheds.
func TestJobdChaosShedDepthAndAge(t *testing.T) {
	leakcheck.Check(t)
	reg := chaosRegistry(t)
	s := newServer(t, jobd.Config{
		Registry:       reg,
		MaxQueueDepth:  2,
		ShedRetryAfter: 7 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := intJobSpec("jobdtest.src", 5, "a", "b") // no workers: stays queued
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submission %d under the depth bound rejected: %v", i, err)
		}
	}
	if _, err := s.Submit(spec); !errors.Is(err, jobd.ErrOverload) {
		t.Fatalf("depth overflow: err = %v, want ErrOverload", err)
	}
	// Over HTTP: 503 with the configured Retry-After hint.
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed over HTTP = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	if got := reg.Counter("jobd.jobs_shed").Value(); got != 2 {
		t.Fatalf("jobd.jobs_shed = %d, want 2", got)
	}

	// Age shedding: a tenant whose oldest queued job is over the bound.
	sAge := newServer(t, jobd.Config{MaxQueueAge: 50 * time.Millisecond})
	if _, err := sAge.Submit(spec); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := sAge.Submit(spec); !errors.Is(err, jobd.ErrOverload) {
		t.Fatalf("age overflow: err = %v, want ErrOverload", err)
	}
}

// A server restarted mid-backoff resumes the retry schedule from the
// journal: the attempt count and the not-before time survive, and the
// retry then converges to done on a replacement mesh.
func TestJobdChaosRestartMidBackoffResumes(t *testing.T) {
	leakcheck.Check(t)
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	wa := chaosWorker(t, "")
	wb := chaosWorker(t, "kill=data:5")

	s1, err := jobd.NewServer(jobd.Config{
		JournalPath:       journal,
		RetryBackoff:      2 * time.Second, // wide backoff window to restart inside
		RetryBackoffMax:   4 * time.Second,
		QuarantineStrikes: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.RegisterWorker("a", wa.Addr(), "")
	s1.RegisterWorker("b", wb.Addr(), "")

	const n = 20
	spec := detectFast(intJobSpec("jobdtest.src", n, "a", "b"))
	spec.MaxRetries = 2
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job in backoff", 20*time.Second, func() bool {
		j, _ := s1.Get(id)
		return j.State == jobd.StateBackoff
	})
	before, _ := s1.Get(id)
	if before.Attempts != 1 || before.NotBefore.IsZero() {
		t.Fatalf("backoff snapshot before restart: %+v", before)
	}
	s1.Close() // die mid-backoff

	reg := chaosRegistry(t)
	s2 := newServer(t, jobd.Config{JournalPath: journal, Registry: reg})
	after, ok := s2.Get(id)
	if !ok {
		t.Fatalf("restarted server does not know job %d", id)
	}
	if after.State != jobd.StateBackoff || after.Attempts != 1 {
		t.Fatalf("replayed backoff job: state %s attempts %d, want backoff/1", after.State, after.Attempts)
	}
	if got, want := after.NotBefore.UnixMilli(), before.NotBefore.UnixMilli(); got != want {
		t.Fatalf("replayed notBefore %d, want the journaled %d", got, want)
	}

	// Fresh mesh under the same names; the resumed retry must finish.
	wa2 := chaosWorker(t, "")
	wb2 := chaosWorker(t, "")
	s2.RegisterWorker("a", wa2.Addr(), "")
	s2.RegisterWorker("b", wb2.Addr(), "")
	res, err := s2.Await(id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobd.StateDone {
		t.Fatalf("resumed job state %s: %s", res.State, res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("resumed job ran %d failed attempts, want the journaled 1", res.Attempts)
	}
	sink := wb2.Instances("K")[0].(*jobdSink)
	if sink.Seen != n || sink.Sum != n*(n-1)/2 {
		t.Fatalf("sink after resumed retry saw %d (sum %d), want %d (sum %d)", sink.Seen, sink.Sum, n, n*(n-1)/2)
	}
}
