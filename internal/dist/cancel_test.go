package dist_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/leakcheck"
)

// cancelRecordingSource writes n buffers and records the first Write error, so
// tests can assert the distributed engine's cancellation contract: a
// producer blocked on a same-host queue (or sending to a failed session)
// gets core.ErrCancelled, not a hang.
type cancelRecordingSource struct {
	core.BaseFilter
	n int
	// werr is read by the test after the run; the worker's copy goroutine
	// wrote it, and the session's end reaches the test over a socket, which
	// orders nothing for the race detector.
	mu   sync.Mutex
	werr error
}

func (s *cancelRecordingSource) Process(ctx core.Ctx) error {
	for i := 0; i < s.n; i++ {
		if err := ctx.Write("ints", core.Buffer{Payload: []byte{byte(i)}, Size: 8}); err != nil {
			s.mu.Lock()
			s.werr = err
			s.mu.Unlock()
			return err
		}
	}
	return nil
}

func (s *cancelRecordingSource) writeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

func init() {
	dist.RegisterFilter("test.cancelsource", func([]byte) (core.Filter, error) {
		return &cancelRecordingSource{n: 500}, nil
	})
}

// TestDistributedLocalWriteCancelled: producer and failing consumer share a
// host, so delivery goes through the same-host queue path (enqueueLocal).
// When the consumer fails, the producer blocked on the tiny full queue must
// be released with core.ErrCancelled and the run must surface the
// consumer's error promptly.
func TestDistributedLocalWriteCancelled(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 1)
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.cancelsource"},
			{Name: "F", Kind: "test.fail"},
		},
		Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "F"}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := dist.Run(addrs, g, []dist.PlacementEntry{
			{Filter: "S", Host: "host0", Copies: 1},
			{Filter: "F", Host: "host0", Copies: 1},
		}, dist.Options{QueueCap: 1}, nil)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("run hung: blocked same-host producer was never cancelled")
	}
	if err == nil {
		t.Fatal("consumer failure not surfaced")
	}
	if errors.Is(err, core.ErrCancelled) {
		t.Fatalf("run error = %v: application error must win over the cancellation it caused", err)
	}
	src := workers["host0"].Instances("S")[0].(*cancelRecordingSource)
	if werr := src.writeErr(); !errors.Is(werr, core.ErrCancelled) {
		t.Fatalf("source write error = %v, want core.ErrCancelled", werr)
	}
}

// crawlSource writes n buffers with a sleep between writes — slow enough for
// a caller to cancel the run context mid-stream.
type crawlSource struct {
	core.BaseFilter
	n int
}

func (s *crawlSource) Process(ctx core.Ctx) error {
	for i := 0; i < s.n; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := ctx.Write("ints", core.Buffer{Payload: []byte{byte(i)}, Size: 8}); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	dist.RegisterFilter("test.crawlsrc", func(p []byte) (core.Filter, error) {
		return &crawlSource{n: int(p[0])}, nil
	})
}

// Cancelling the run context mid-session returns an error wrapping
// context.Canceled and tears the session down through the abort protocol:
// the same workers serve a fresh run immediately afterwards.
func TestRunCtxCancelTearsDown(t *testing.T) {
	leakcheck.Check(t)
	addrs, workers := startWorkers(t, 2)
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "test.crawlsrc", Params: []byte{200}},
			{Name: "K", Kind: "test.sink"},
		},
		Streams: []core.StreamSpec{{Name: "ints", From: "S", To: "K"}},
	}
	place := []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := dist.RunObservedCtx(ctx, addrs, g, place, dist.Options{}, nil, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error %v does not wrap context.Canceled", err)
	}
	// 200 writes x 20ms would run ~4s; cancellation must cut that short.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}

	// The aborted session released the workers: a fresh (uncancelled) run
	// over the same mesh completes with full delivery.
	const n = 30
	if _, err := dist.Run(addrs, intGraph(n), place, dist.Options{}, nil); err != nil {
		t.Fatalf("mesh unusable after cancelled run: %v", err)
	}
	seen := 0
	for _, inst := range workers["host1"].Instances("K") {
		seen += inst.(*intSink).Seen
	}
	if seen < n {
		t.Fatalf("post-cancel run delivered %d, want >= %d", seen, n)
	}
}
