package dist

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/faults"
	"datacutter/internal/leakcheck"
)

// Pooled control links. The CI chaos lane runs these with the other
// TestChaos tests under the race detector.

// byteSource writes two one-byte buffers on stream s.
type byteSource struct{ core.BaseFilter }

func (byteSource) Process(ctx core.Ctx) error {
	for i := range 2 {
		if err := ctx.Write("s", core.Buffer{Payload: []byte{byte(i)}, Size: 1}); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	RegisterFilter("test.bytesource", func([]byte) (core.Filter, error) { return byteSource{}, nil })
}

// poolOpts beat fast, so a setup the worker never answers times out after
// setupBound.
var poolOpts = Options{HeartbeatInterval: 50 * time.Millisecond, HeartbeatMisses: 3}

const setupBound = 3*50*time.Millisecond + 2*time.Second

// poolGraph is S(h0) -> K(h1) on stream s, S of the given kind and K
// counting what reaches it.
func poolGraph(source string) (GraphSpec, []PlacementEntry) {
	return GraphSpec{
			Filters: []FilterSpec{{Name: "S", Kind: source}, {Name: "K", Kind: "test.countsink"}},
			Streams: []core.StreamSpec{{Name: "s", From: "S", To: "K"}},
		}, []PlacementEntry{
			{Filter: "S", Host: "h0", Copies: 1}, {Filter: "K", Host: "h1", Copies: 1},
		}
}

// servePool starts a worker on addr ("127.0.0.1:0": any port), retrying
// briefly while a killed predecessor's port is still being released.
func servePool(t *testing.T, addr string, fi *faults.Injector) *Worker {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		w, err := NewWorker(addr)
		if err == nil {
			if fi != nil {
				w.SetFaults(fi)
			}
			t.Cleanup(w.Close)
			go w.Serve()
			return w
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// poolRound is a pool, two workers h0 and h1 (h1 with fi) and the graph
// S(h0) -> K(h1) with S of kind source.
type poolRound struct {
	t         *testing.T
	p         *Pool
	w         map[string]*Worker
	addrs     map[string]string
	g         GraphSpec
	place     []PlacementEntry
	sinkReads int // buffers K reads per run
}

func newPoolRound(t *testing.T, source string, fi *faults.Injector) *poolRound {
	r := &poolRound{t: t, p: NewPool(), w: map[string]*Worker{}, addrs: map[string]string{}, sinkReads: 2}
	if source == "test.nop" {
		r.sinkReads = 0
	}
	r.w["h0"] = servePool(t, "127.0.0.1:0", nil)
	r.w["h1"] = servePool(t, "127.0.0.1:0", fi)
	for h, w := range r.w {
		r.addrs[h] = w.Addr()
	}
	t.Cleanup(r.p.Close)
	r.g, r.place = poolGraph(source)
	return r
}

// run runs job on the pool's links.
func (r *poolRound) run(job uint64) error {
	opts := poolOpts
	opts.JobID = job
	_, err := r.p.Run(context.Background(), r.addrs, r.g, r.place, opts, nil, nil)
	return err
}

// ok runs job and fails the test unless it succeeded and K read every
// buffer.
func (r *poolRound) ok(job uint64) {
	r.t.Helper()
	if err := r.run(job); err != nil {
		r.t.Fatalf("job %d: %v", job, err)
	}
	ks := r.w["h1"].InstancesJob(job, "K")
	if len(ks) != 1 || ks[0].(*countSink).n != r.sinkReads {
		r.t.Fatalf("job %d: sink instances %v, want one that read %d buffers", job, ks, r.sinkReads)
	}
}

// idle is how many idle links the pool holds per host.
func (r *poolRound) idle() map[string]int {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	n := map[string]int{}
	for h, a := range r.addrs {
		n[h] = len(r.p.idle[a])
	}
	return n
}

func (r *poolRound) wantIdle(h0, h1 int) {
	r.t.Helper()
	if n := r.idle(); n["h0"] != h0 || n["h1"] != h1 {
		r.t.Fatalf("idle links %v, want h0:%d h1:%d", n, h0, h1)
	}
}

// wantHosts fails unless err attributes the run to exactly hosts.
func wantHosts(t *testing.T, err error, hosts ...string) {
	t.Helper()
	var he *HostsError
	if !errors.As(err, &he) || !slices.Equal(he.Hosts, hosts) {
		t.Fatalf("run error %v, want one attributed to %v", err, hosts)
	}
}

// Consecutive jobs set up on the links of the rounds before them: a job
// that dialed instead would leave a second idle link per worker behind.
func TestChaosPooledLinksCarryConsecutiveJobs(t *testing.T) {
	leakcheck.Check(t)
	r := newPoolRound(t, "test.bytesource", nil)
	for job := uint64(1); job <= 3; job++ {
		r.ok(job)
		r.wantIdle(1, 1)
	}
}

// A worker killed while its link idles and restarted on the same address
// is not at fault: the next job finds the link hung up, drops it, redials
// and succeeds.
func TestChaosPooledLinkRedialsRestartedWorker(t *testing.T) {
	leakcheck.Check(t)
	r := newPoolRound(t, "test.bytesource", nil)
	r.ok(1)
	r.w["h1"].Kill()
	r.w["h1"] = servePool(t, r.addrs["h1"], nil)
	r.ok(2)
	r.wantIdle(1, 1)
}

// A worker that stays dead fails the next job attributed to it, within one
// setup bound, and the round's other link, aborted, is not pooled.
func TestChaosPooledLinkDeadWorkerAttributed(t *testing.T) {
	leakcheck.Check(t)
	r := newPoolRound(t, "test.bytesource", nil)
	r.ok(1)
	r.w["h1"].Kill()
	t0 := time.Now()
	err := r.run(2)
	if d := time.Since(t0); d > setupBound {
		t.Fatalf("the failed setup took %v, beyond one setup bound (%v)", d, setupBound)
	}
	wantHosts(t, err, "h1")
	r.wantIdle(0, 0)
}

// Hosts set up concurrently: every one that failed is named.
func TestChaosConcurrentSetupNamesEveryFailedHost(t *testing.T) {
	leakcheck.Check(t)
	r := newPoolRound(t, "test.bytesource", nil)
	r.ok(1)
	r.w["h0"].Kill()
	r.w["h1"].Kill()
	wantHosts(t, r.run(2), "h0", "h1")
}

// A worker wedged while its link idles never answers the setup: the job
// fails attributed to it after one setup timeout, not a second one on a
// fresh dial.
func TestChaosPooledLinkWedgedWorkerOneTimeout(t *testing.T) {
	leakcheck.Check(t)
	plan, err := faults.ParsePlan("wedge=data:1:3s")
	if err != nil {
		t.Fatal(err)
	}
	fi := plan.Injector()
	r := newPoolRound(t, "test.nop", fi) // no data frame: the wedge waits for the test
	r.ok(1)
	fi.FrameReceived(true) // the worker freezes while its link idles
	t0 := time.Now()
	err = r.run(2)
	d := time.Since(t0)
	wantHosts(t, err, "h1")
	if d < setupBound || d > setupBound+setupBound/2 {
		t.Fatalf("the wedged setup failed after %v, want one setup timeout (%v)", d, setupBound)
	}
}

// Between sessions a worker skips a heartbeat the coordinator sent after
// kindShutdownDone and serves the next setup on the same link; any other
// frame there closes the link.
func TestChaosStrayHeartbeatBetweenPooledSessions(t *testing.T) {
	leakcheck.Check(t)
	h := newRawHost(t)
	c := h.setup(7, 100)
	h.produce(h.producer(7, 100))
	if n := h.finish(c, 7); n != 1 {
		t.Fatalf("session 1's sink read %d buffers, want 1", n)
	}
	h.send(c.conn, &frame{Kind: kindHeartbeat})
	h.setupOn(c, 8, 101)
	h.start(c)
	h.produce(h.producer(8, 101))
	if n := h.finish(c, 8); n != 1 {
		t.Fatalf("session 2's sink read %d buffers, want 1", n)
	}
	h.send(c.conn, &frame{Kind: kindRunUOW, UOW: &uowMsg{}})
	if !c.hungUp() {
		t.Fatal("a unit-of-work request between sessions kept the link open")
	}
}

// Only a round that ended with a plain kindShutdown, confirmed, in a run
// not cancelled, hands its links to the pool: an aborted or cancelled
// round's links close, and so do a failed run's.
func TestChaosOnlyCleanRoundsPoolLinks(t *testing.T) {
	for _, tc := range []struct {
		name, why string
		cancel    bool
		pooled    int
	}{
		{"clean", "", false, 1},
		{"aborted", "host(s) lost: gone", false, 0},
		{"cancelled", "", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			co, _, worker := endingRound(t, "h")
			co.pool = NewPool()
			t.Cleanup(co.pool.Close)
			if tc.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				co.ctx = ctx
			}
			l := co.links["h"]
			if err := worker["h"].send(&frame{Kind: kindShutdownDone}); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); !l.over.Load(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the link never saw the confirmation")
				}
			}
			co.end(tc.why)
			if n := len(co.pool.idle["127.0.0.1:1"]); n != tc.pooled {
				t.Fatalf("%d idle links after a %s round, want %d", n, tc.name, tc.pooled)
			}
		})
	}
	t.Run("failed run", func(t *testing.T) {
		leakcheck.Check(t)
		r := newPoolRound(t, "test.bytesource", nil)
		r.g.Filters[1].Kind = "test.slowclose"
		if err := r.run(1); err == nil {
			t.Fatal("the failing filter's run succeeded")
		}
		r.wantIdle(0, 0)
	})
}
