package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// endingRound builds a coordinator mid-recovery: host "gone" is already
// dead, and every host in live has a link whose worker end the test drives.
// Every address refuses the re-setup's dial: only the verdicts matter.
func endingRound(t *testing.T, live ...string) (*coordinator, *obs.Registry, map[string]*conn) {
	t.Helper()
	reg := obs.NewRegistry()
	co := &coordinator{
		ctx:   context.Background(),
		opts:  Options{HeartbeatInterval: 10 * time.Millisecond, HeartbeatMisses: 3, DialAttempts: 1},
		addrs: map[string]string{"gone": "127.0.0.1:1"},
		links: map[string]*hostLink{},
		placement: []PlacementEntry{
			{Filter: "F", Host: "gone", Copies: 1},
		},
		m: coordMetrics{hostsLost: reg.Counter("coord.hosts_lost")},
	}
	gone, _ := tcpPair(t)
	co.links["gone"] = &hostLink{host: "gone", dead: true, c: newConn(gone, nil), stop: make(chan struct{})}
	worker := map[string]*conn{}
	for _, h := range live {
		cc, sc := tcpPair(t)
		co.addrs[h] = "127.0.0.1:1"
		co.placement = append(co.placement, PlacementEntry{Filter: "F", Host: h, Copies: 1})
		co.links[h] = newHostLink(h, newConn(cc, nil), co.opts.hbInterval())
		worker[h] = newConn(sc, nil)
		t.Cleanup(worker[h].close)
	}
	return co, reg, worker
}

// A survivor that confirmed the end of its session and hung up, as a
// worker does after kindShutdownDone, is done, not dead: while recovery
// still waits on a slower survivor, the liveness sweep must not read the
// finished link's closed connection as a death and replan the host's
// copies away. (The chaos tests that read a sink after a retry flaked on
// exactly this under load.)
func TestAbortConfirmedSurvivorNotDeclaredDead(t *testing.T) {
	leakcheck.Check(t)
	co, _, worker := endingRound(t, "fast", "slow")

	// fast confirms at once and closes its control connection; slow beats
	// four times an interval through ten intervals, then confirms.
	if err := worker["fast"].send(&frame{Kind: kindShutdownDone}); err != nil {
		t.Fatal(err)
	}
	worker["fast"].close()
	go func() {
		for i := 0; i < 40; i++ {
			time.Sleep(co.opts.hbInterval() / 4)
			_ = worker["slow"].send(&frame{Kind: kindHeartbeat})
		}
		_ = worker["slow"].send(&frame{Kind: kindShutdownDone})
	}()

	if err := co.recover([]string{"gone"}); err == nil {
		t.Fatal("re-setup against refused addresses succeeded")
	}
	for _, h := range []string{"fast", "slow"} {
		if _, ok := co.addrs[h]; !ok {
			t.Errorf("survivor %s, which confirmed its abort, was declared dead", h)
		}
	}
}

// A survivor that dies while recovery awaits its confirmation is lost like
// the host that started the recovery: dropped from the placement and
// counted in coord.hosts_lost.
func TestSurvivorLostWhileRoundEndsCounted(t *testing.T) {
	leakcheck.Check(t)
	co, reg, worker := endingRound(t, "fast", "slow")

	if err := worker["fast"].send(&frame{Kind: kindShutdownDone}); err != nil {
		t.Fatal(err)
	}
	worker["slow"].close() // before confirming

	if err := co.recover([]string{"gone"}); err == nil {
		t.Fatal("re-setup against refused addresses succeeded")
	}
	if _, ok := co.addrs["slow"]; ok {
		t.Error("slow, which hung up unconfirmed, is still in the placement")
	}
	if _, ok := co.addrs["fast"]; !ok {
		t.Error("fast, which confirmed, was declared dead")
	}
	if n := reg.Counter("coord.hosts_lost").Value(); n != 2 {
		t.Fatalf("coord.hosts_lost = %d, want 2 (gone and slow)", n)
	}
}

// A host lost on a unit-of-work broadcast gets the coordinator's one verdict path:
// marked dead, with exactly one host-down event.
func TestBroadcastSendFailureEmitsHostDown(t *testing.T) {
	leakcheck.Check(t)
	cc, _ := tcpPair(t)
	c := newConn(cc, nil)
	c.close()
	ring := obs.NewRingSink(16)
	co := &coordinator{
		ctx:   context.Background(),
		o:     obs.New(ring, nil),
		addrs: map[string]string{"h": "127.0.0.1:1"},
		links: map[string]*hostLink{"h": {host: "h", c: c, stop: make(chan struct{})}},
	}
	if err := co.broadcast(&frame{Kind: kindRunUOW, UOW: &uowMsg{}}); err == nil {
		t.Fatal("broadcast on a closed connection succeeded")
	}
	var downs []string
	for _, e := range ring.Events() {
		if e.Kind == obs.KindHostDown {
			downs = append(downs, e.Host)
		}
	}
	if !co.links["h"].dead || len(downs) != 1 || downs[0] != "h" {
		t.Fatalf("dead = %v, host-down events for %v; want h dead with one event", co.links["h"].dead, downs)
	}
}

// slowCloseFilter fails its unit of work and takes a while to retire.
type slowCloseFilter struct{ core.BaseFilter }

func (slowCloseFilter) Process(core.Ctx) error { return errors.New("boom") }

func (slowCloseFilter) Close() error {
	time.Sleep(300 * time.Millisecond)
	return nil
}

func init() {
	RegisterFilter("test.slowclose", func([]byte) (core.Filter, error) { return slowCloseFilter{}, nil })
}

// A failed run returns only once every live worker has ended its session:
// a retry or the next run of the same job never races its previous attempt.
func TestRoundEndAwaitsSessionsOnFailedRun(t *testing.T) {
	leakcheck.Check(t)
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	go w.Serve()

	g := GraphSpec{Filters: []FilterSpec{{Name: "F", Kind: "test.slowclose"}}}
	_, err = Run(map[string]string{"h": w.Addr()}, g, []PlacementEntry{{Filter: "F", Host: "h", Copies: 1}}, Options{}, nil)
	w.mu.Lock()
	n := len(w.sessions)
	w.mu.Unlock()
	if err == nil {
		t.Fatal("the failing filter's run succeeded")
	}
	if n != 0 {
		t.Fatalf("Run returned with %d worker session(s) still registered", n)
	}
}
