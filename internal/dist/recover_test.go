package dist

import (
	"context"
	"testing"
	"time"

	"datacutter/internal/leakcheck"
)

// A survivor that confirmed its abort and hung up, as a worker does after
// kindAbortDone, is done, not dead: while recovery still waits on a slower
// survivor, the liveness sweep must not read the finished link's closed
// connection as a death and replan the host's copies away. (The chaos
// tests that read a sink after a retry flaked on exactly this under load.)
func TestAbortConfirmedSurvivorNotDeclaredDead(t *testing.T) {
	leakcheck.Check(t)
	co := &coordinator{
		ctx:   context.Background(),
		opts:  Options{HeartbeatInterval: 10 * time.Millisecond, HeartbeatMisses: 3, DialAttempts: 1},
		addrs: map[string]string{"gone": "127.0.0.1:1"},
		links: map[string]*hostLink{},
		placement: []PlacementEntry{
			{Filter: "F", Host: "gone", Copies: 1},
			{Filter: "F", Host: "fast", Copies: 1},
			{Filter: "F", Host: "slow", Copies: 1},
		},
	}
	gone, _ := tcpPair(t)
	co.links["gone"] = &hostLink{host: "gone", dead: true, c: newConn(gone, nil), stop: make(chan struct{})}
	worker := map[string]*conn{}
	for _, h := range []string{"fast", "slow"} {
		cc, sc := tcpPair(t)
		co.addrs[h] = "127.0.0.1:1" // the re-setup's dial is refused: only the verdicts matter
		co.links[h] = newHostLink(h, newConn(cc, nil), co.opts.hbInterval())
		worker[h] = newConn(sc, nil)
		defer worker[h].close()
	}

	// fast confirms at once and closes its control connection; slow beats
	// four times an interval through ten intervals, then confirms.
	if err := worker["fast"].send(&frame{Kind: kindAbortDone}); err != nil {
		t.Fatal(err)
	}
	worker["fast"].close()
	go func() {
		for i := 0; i < 40; i++ {
			time.Sleep(co.opts.hbInterval() / 4)
			_ = worker["slow"].send(&frame{Kind: kindHeartbeat})
		}
		_ = worker["slow"].send(&frame{Kind: kindAbortDone})
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
