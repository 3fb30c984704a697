package exec_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// exec.Fuse, on both clocks. The test filters below are the parts; every
// test runs them fused inside a Runtime, the way an engine would.

// fSource writes n numbered buffers on out, remembering how far it got.
type fSource struct {
	exec.BaseFilter
	out  string
	n    int
	sent int
	werr error
}

func (s *fSource) Process(ctx exec.Ctx) error {
	for i := 0; i < s.n; i++ {
		if s.werr = ctx.Write(s.out, exec.Buffer{Payload: strconv.Itoa(i), Size: 1}); s.werr != nil {
			return s.werr
		}
		s.sent++
	}
	return nil
}

// fRelay forwards in to out, tagging each payload. After failAt buffers it
// fails the way fail says (nil: never). It also implements the two optional
// filter extensions, counting the calls.
type fRelay struct {
	in, out string
	failAt  int
	fail    func() error
	werr    error

	inBytes          int
	observed, closed int
}

func (f *fRelay) Init(exec.Ctx) error { return nil }

func (f *fRelay) Process(ctx exec.Ctx) error {
	f.inBytes = ctx.BufferBytes(f.in)
	for i := 0; ; i++ {
		b, ok := ctx.Read(f.in)
		if !ok {
			return nil
		}
		if f.fail != nil && i+1 == f.failAt {
			return f.fail()
		}
		if f.werr = ctx.Write(f.out, exec.Buffer{Payload: b.Payload.(string) + ">" + f.out, Size: 1}); f.werr != nil {
			return f.werr
		}
	}
}

func (f *fRelay) Finalize(exec.Ctx) error     { return nil }
func (f *fRelay) SetObserver(o *obs.Observer) { f.observed++ }
func (f *fRelay) Close() error                { f.closed++; return nil }

// fSink records what arrives on t, in order. After failAt buffers it waits
// for the producer to fill the queue and block, then fails.
type fSink struct {
	exec.BaseFilter
	failAt int
	got    []string
}

func (k *fSink) Process(ctx exec.Ctx) error {
	for {
		b, ok := ctx.Read("t")
		if !ok {
			return nil
		}
		k.got = append(k.got, b.Payload.(string))
		if len(k.got) == k.failAt {
			time.Sleep(10 * time.Millisecond)
			return errors.New("sink failed")
		}
	}
}

// runFused runs P -> K on one host, one copy each, where P is the given
// (fused) filter writing stream t.
func runFused(t *testing.T, clock exec.Clock, p exec.Filter, k *fSink, queueCap int) (*exec.Runtime, *exec.Stats, error) {
	t.Helper()
	rt := exec.New(exec.Config{
		Engine: "test", Clock: clock,
		Filters: []string{"P", "K"},
		Streams: []exec.StreamSpec{{Name: "t", From: "P", To: "K"}},
		New: func(name string) (exec.Filter, error) {
			if name == "P" {
				return p, nil
			}
			return k, nil
		},
		QueueCap: queueCap,
	})
	if err := rt.Place([]elastic.Entry{{Filter: "P", Host: "h", Copies: 1}, {Filter: "K", Host: "h", Copies: 1}}); err != nil {
		t.Fatal(err)
	}
	var st *exec.Stats
	done := make(chan error, 1)
	go func() {
		var err error
		st, err = rt.RunUOW(0, nil)
		done <- err
	}()
	select {
	case err := <-done:
		return rt, st, err
	case <-time.After(10 * time.Second):
		t.Fatal("run hung")
		return nil, nil, nil
	}
}

// Buffers cross a fused stream in order and exactly once, whichever way
// three stages nest; the fused streams leave no trace in the stats, read as
// unbounded, and io.Closer / ObserverSetter reach every part.
func TestFuseDeliversInOrderExactlyOnce(t *testing.T) {
	const n = 50
	nestings := map[string]func(s, a, b exec.Filter) exec.Filter{
		"left":  func(s, a, b exec.Filter) exec.Filter { return exec.Fuse(exec.Fuse(s, a, "a"), b, "b") },
		"right": func(s, a, b exec.Filter) exec.Filter { return exec.Fuse(s, exec.Fuse(a, b, "b"), "a") },
	}
	for _, c := range clocks {
		for nest, fuse := range nestings {
			t.Run(c.name+"/"+nest, func(t *testing.T) {
				leakcheck.Check(t)
				src := &fSource{out: "a", n: n}
				ra, rb := &fRelay{in: "a", out: "b"}, &fRelay{in: "b", out: "t"}
				sink := &fSink{}
				rt, st, err := runFused(t, c.new(), fuse(src, ra, rb), sink, 4)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]string, n)
				for i := range want {
					want[i] = fmt.Sprintf("%d>b>t", i)
				}
				if !reflect.DeepEqual(sink.got, want) {
					t.Fatalf("sink got %v", sink.got)
				}
				if len(st.Streams) != 1 || st.Streams["t"].Buffers != n {
					t.Fatalf("stream stats %v: want only t with %d buffers", st.Streams, n)
				}
				if fs := st.Filters["P"]; fs.BuffersIn != 0 || fs.BuffersOut != n {
					t.Fatalf("fused filter counted in=%d out=%d, want 0 and %d", fs.BuffersIn, fs.BuffersOut, n)
				}
				if ra.inBytes != math.MaxInt || rb.inBytes != math.MaxInt {
					t.Fatalf("fused streams report %d and %d buffer bytes, want unbounded", ra.inBytes, rb.inBytes)
				}
				rt.Close()
				for _, r := range []*fRelay{ra, rb} {
					if r.observed != 1 || r.closed != 1 {
						t.Fatalf("part %s: SetObserver x%d, Close x%d, want once each", r.in, r.observed, r.closed)
					}
				}
			})
		}
	}
}

// down fails or panics while up is still producing: up's Write returns
// down's failure, the run reports it once in the runtime's error shape
// under the fused filter's name, and down's goroutine is gone.
func TestFuseDownFailureStopsUp(t *testing.T) {
	fails := map[string]struct {
		fail func() error
		want string
	}{
		"error": {func() error { return errors.New("boom") }, "test: filter P copy 0 (process): boom"},
		"panic": {func() error { panic("kaboom") }, "test: filter P copy 0 (process): filter panicked: kaboom"},
	}
	for _, c := range clocks {
		for how, f := range fails {
			t.Run(c.name+"/"+how, func(t *testing.T) {
				leakcheck.Check(t)
				src := &fSource{out: "a", n: 1000}
				relay := &fRelay{in: "a", out: "t", failAt: 3, fail: f.fail}
				_, _, err := runFused(t, c.new(), exec.Fuse(src, relay, "a"), &fSink{}, 4)
				if err == nil || err.Error() != f.want {
					t.Fatalf("run error = %v, want %q", err, f.want)
				}
				if src.sent != 2 || src.werr == nil || "test: filter P copy 0 (process): "+src.werr.Error() != f.want {
					t.Fatalf("up sent %d buffers, its Write returned %v; want 2 and down's failure", src.sent, src.werr)
				}
			})
		}
	}
}

// The run is cancelled (K fails) while down is blocked writing to K's full
// queue: down's Write is released with ErrCancelled, up's next Write on the
// fused stream reports the same, and the run returns K's error.
func TestFuseCancellationUnblocksDown(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			leakcheck.Check(t)
			src := &fSource{out: "a", n: 1000}
			relay := &fRelay{in: "a", out: "t"}
			_, _, err := runFused(t, c.new(), exec.Fuse(src, relay, "a"), &fSink{failAt: 3}, 1)
			if err == nil || err.Error() != "test: filter K copy 0 (process): sink failed" {
				t.Fatalf("run error = %v, want K's failure", err)
			}
			if !errors.Is(relay.werr, exec.ErrCancelled) || !errors.Is(src.werr, exec.ErrCancelled) {
				t.Fatalf("down's Write returned %v, up's %v; want ErrCancelled for both", relay.werr, src.werr)
			}
		})
	}
}
