package exec_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
	"datacutter/internal/sim"
)

// The copy runtime's own tests. Every one runs on both implementations of
// the Clock seam — the seam exists so a test can substitute the clock — and
// must observe the same behaviour on each.

var clocks = []struct {
	name string
	new  func() exec.Clock
}{
	{"wall", exec.Wall},
	{"virtual", func() exec.Clock { return &exec.VirtualClock{K: sim.NewKernel()} }},
}

// record collects what filter copies observed, from any thread.
type record struct {
	mu   sync.Mutex
	got  map[string][]string // stream -> payloads delivered
	eow  map[string]int      // "stream/filter#copy/uow" -> end-of-work reads
	late int                 // buffers delivered after a copy saw end-of-work
}

func newRecord() *record { return &record{got: map[string][]string{}, eow: map[string]int{}} }

// drain reads stream to end-of-work, recording each payload, then reads once
// more: end-of-work is sticky, never followed by data.
func (r *record) drain(ctx exec.Ctx, filter, stream string, each func(exec.Buffer) error) error {
	for {
		b, ok := ctx.Read(stream)
		if !ok {
			break
		}
		r.mu.Lock()
		r.got[stream] = append(r.got[stream], b.Payload.(string))
		r.mu.Unlock()
		if each != nil {
			if err := each(b); err != nil {
				return err
			}
		}
	}
	_, again := ctx.Read(stream)
	r.mu.Lock()
	r.eow[fmt.Sprintf("%s/%s#%d/%d", stream, filter, ctx.CopyIndex(), ctx.UOW())]++
	if again {
		r.late++
	}
	r.mu.Unlock()
	return nil
}

// diamond: S fans out on sa and sb, A and B relay to J, which joins them.
type diaSource struct {
	exec.BaseFilter
	n int
}

func (s *diaSource) Process(ctx exec.Ctx) error {
	for i := 0; i < s.n; i++ {
		for _, stream := range []string{"sa", "sb"} {
			p := fmt.Sprintf("u%d-%s-%d", ctx.UOW(), stream, i)
			if err := ctx.Write(stream, exec.Buffer{Payload: p, Size: 16}); err != nil {
				return err
			}
		}
	}
	return nil
}

type diaRelay struct {
	exec.BaseFilter
	rec           *record
	name, in, out string
}

func (f *diaRelay) Process(ctx exec.Ctx) error {
	return f.rec.drain(ctx, f.name, f.in, func(b exec.Buffer) error {
		return ctx.Write(f.out, exec.Buffer{Payload: b.Payload.(string) + ">" + f.out, Size: b.Size})
	})
}

type diaJoin struct {
	exec.BaseFilter
	rec *record
}

func (f *diaJoin) Process(ctx exec.Ctx) error {
	if err := f.rec.drain(ctx, "J", "aj", nil); err != nil {
		return err
	}
	return f.rec.drain(ctx, "J", "bj", nil)
}

const diaN, diaUOWs = 10, 2 // diaN is not a multiple of the sa ack batch

func runDiamond(t *testing.T, clock exec.Clock) (*record, *exec.Stats, []obs.Event) {
	t.Helper()
	rec := newRecord()
	ring := obs.NewRingSink(1 << 14)
	o := obs.New(ring, nil)
	o.SetClock(clock)
	pol, err := exec.ParsePolicies("RR", map[string]string{"sa": "DD/4", "aj": "DD", "bj": "WRR"})
	if err != nil {
		t.Fatal(err)
	}
	rt := exec.New(exec.Config{
		Engine: "test", Clock: clock,
		Filters: []string{"S", "A", "B", "J"},
		Streams: []exec.StreamSpec{
			{Name: "sa", From: "S", To: "A"}, {Name: "sb", From: "S", To: "B"},
			{Name: "aj", From: "A", To: "J"}, {Name: "bj", From: "B", To: "J"},
		},
		New: func(name string) (exec.Filter, error) {
			switch name {
			case "S":
				return &diaSource{n: diaN}, nil
			case "A":
				return &diaRelay{rec: rec, name: "A", in: "sa", out: "aj"}, nil
			case "B":
				return &diaRelay{rec: rec, name: "B", in: "sb", out: "bj"}, nil
			}
			return &diaJoin{rec: rec}, nil
		},
		// J drains aj before bj, so the B side must absorb a whole unit.
		Policies: pol, QueueCap: diaN, Obs: o,
	})
	if err := rt.Place([]elastic.Entry{
		{Filter: "S", Host: "h0", Copies: 1},
		{Filter: "A", Host: "h0", Copies: 2}, {Filter: "A", Host: "h1", Copies: 1},
		{Filter: "B", Host: "h1", Copies: 2},
		{Filter: "J", Host: "h0", Copies: 1},
	}); err != nil {
		t.Fatal(err)
	}
	st := rt.NewStats()
	for u := 0; u < diaUOWs; u++ {
		if err := rt.RunUOW(u, nil, st); err != nil {
			t.Fatalf("uow %d: %v", u, err)
		}
	}
	return rec, st, ring.Events()
}

// The same diamond on both clocks: equal delivery multisets, exactly one
// end-of-work per (stream, consumer copy, unit of work), and every buffer of
// the batched-ack stream acknowledged — the partial batches by the flush at
// end-of-work.
func TestRuntimeDiamondOnBothClocks(t *testing.T) {
	leakcheck.Check(t)
	sorted := func(r *record) map[string][]string {
		out := map[string][]string{}
		for s, ps := range r.got {
			out[s] = append([]string(nil), ps...)
			sort.Strings(out[s])
		}
		return out
	}
	var first map[string][]string
	for _, c := range clocks {
		rec, st, events := runDiamond(t, c.new())
		got := sorted(rec)
		for _, stream := range []string{"sa", "sb", "aj", "bj"} {
			if n := len(got[stream]); n != diaN*diaUOWs {
				t.Fatalf("%s: stream %s delivered %d buffers, want %d", c.name, stream, n, diaN*diaUOWs)
			}
			if b := st.Streams[stream].Buffers; b != diaN*diaUOWs {
				t.Fatalf("%s: stats count %d buffers on %s", c.name, b, stream)
			}
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("delivery multisets differ between clocks:\n%v\n%v", first, got)
		}
		// A×3 on sa, B×2 on sb, J×1 on aj and bj, each once per unit.
		if want := (3 + 2 + 1 + 1) * diaUOWs; len(rec.eow) != want {
			t.Fatalf("%s: %d end-of-work observations, want %d: %v", c.name, len(rec.eow), want, rec.eow)
		}
		for k, n := range rec.eow {
			if n != 1 {
				t.Fatalf("%s: end-of-work seen %d times at %s", c.name, n, k)
			}
		}
		if rec.late != 0 {
			t.Fatalf("%s: %d buffers delivered after end-of-work", c.name, rec.late)
		}
		acked, partial := 0, 0
		for _, e := range events {
			if e.Kind == obs.KindAck && e.Stream == "sa" {
				acked += e.N
				if e.N < 4 {
					partial++
				}
			}
		}
		if acked != diaN*diaUOWs || partial == 0 {
			t.Fatalf("%s: sa acknowledged %d of %d buffers, %d partial batches flushed", c.name, acked, diaN*diaUOWs, partial)
		}
		if st.Streams["sb"].Acks != 0 || st.Streams["aj"].Acks != diaN*diaUOWs {
			t.Fatalf("%s: acks sb=%d aj=%d", c.name, st.Streams["sb"].Acks, st.Streams["aj"].Acks)
		}
	}
}

// Cancellation: K fails while S is blocked in a Put on K's full queue and G
// is blocked in a Get on a stream S has not finished. Both must be released
// — the Put with ErrCancelled, the Get with end-of-stream — and the run must
// report K's error, in the runtime's one error shape, not the cancellation
// it caused.
type cancelSource struct {
	exec.BaseFilter
	werr error
}

func (s *cancelSource) Process(ctx exec.Ctx) error {
	for i := 0; i < 1000; i++ {
		if s.werr = ctx.Write("x", exec.Buffer{Payload: "x", Size: 1}); s.werr != nil {
			return s.werr
		}
	}
	return nil
}

type failAfter struct {
	exec.BaseFilter
	n int
}

func (f *failAfter) Process(ctx exec.Ctx) error {
	for i := 0; i < f.n; i++ {
		ctx.Read("x")
	}
	time.Sleep(10 * time.Millisecond) // wall clock: let S fill the queue and block
	return errors.New("boom")
}

type waiter struct {
	exec.BaseFilter
	released bool
}

func (w *waiter) Process(ctx exec.Ctx) error {
	_, ok := ctx.Read("y")
	w.released = !ok
	return nil
}

func TestRuntimeCancellationUnblocksPutAndGet(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			leakcheck.Check(t)
			src, wait := &cancelSource{}, &waiter{}
			rt := exec.New(exec.Config{
				Engine: "test", Clock: c.new(),
				Filters: []string{"S", "K", "G"},
				Streams: []exec.StreamSpec{{Name: "x", From: "S", To: "K"}, {Name: "y", From: "S", To: "G"}},
				New: func(name string) (exec.Filter, error) {
					return map[string]exec.Filter{"S": src, "K": &failAfter{n: 3}, "G": wait}[name], nil
				},
				QueueCap: 1,
			})
			if err := rt.Place([]elastic.Entry{{Filter: "S", Host: "h", Copies: 1}, {Filter: "K", Host: "h", Copies: 1}, {Filter: "G", Host: "h", Copies: 1}}); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- rt.RunUOW(0, nil, rt.NewStats()) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("run hung: a blocked copy was never cancelled")
			}
			if err == nil || err.Error() != "test: filter K copy 0 (process): boom" {
				t.Fatalf("run error = %v, want K's failure in the runtime's error shape", err)
			}
			if !errors.Is(src.werr, exec.ErrCancelled) {
				t.Fatalf("blocked Write returned %v, want ErrCancelled", src.werr)
			}
			if !wait.released {
				t.Fatal("blocked Read was not released with end-of-stream")
			}
			if rt.Err() != err {
				t.Fatalf("Err() = %v, want the run's error", rt.Err())
			}
			select {
			case <-rt.Done():
			default:
				t.Fatal("Done not closed after the abort")
			}
			if _, err := rt.Init(1, nil, rt.NewStats()); err == nil {
				t.Fatal("an aborted runtime started another unit of work")
			}
		})
	}
}

// Placement changes between units of work: surviving slots keep their
// instances, a retired copy that implements io.Closer is closed, and Close
// retires the rest while Instances keeps answering.
type closer struct {
	exec.BaseFilter
	closed *int
}

func (c *closer) Process(exec.Ctx) error { return nil }
func (c *closer) Close() error           { *c.closed++; return nil }

func TestRuntimePlaceRetiresAndCloses(t *testing.T) {
	closed := 0
	rt := exec.New(exec.Config{
		Engine: "test", Clock: exec.Wall(), Filters: []string{"F"},
		New: func(string) (exec.Filter, error) { return &closer{closed: &closed}, nil },
	})
	place := func(h0, h1 int) []exec.Filter {
		t.Helper()
		if err := rt.Place([]elastic.Entry{{Filter: "F", Host: "h0", Copies: h0}, {Filter: "F", Host: "h1", Copies: h1}}); err != nil {
			t.Fatal(err)
		}
		return rt.Instances("F")
	}
	a := place(2, 1)
	b := place(1, 2) // h0 shrinks from the end, h1 grows
	if closed != 1 || len(b) != 3 || b[0] != a[0] || b[1] != a[2] {
		t.Fatalf("closed=%d, survivors kept: %v", closed, b[0] == a[0] && b[1] == a[2])
	}
	if err := rt.RunUOW(0, nil, rt.NewStats()); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if closed != 4 || len(rt.Instances("F")) != 3 {
		t.Fatalf("after Close: closed=%d instances=%d", closed, len(rt.Instances("F")))
	}
}

// The buffer-size rule, once: the largest declared minimum and the smallest
// declared maximum bound the default.
func TestDeclareAndResolveSizes(t *testing.T) {
	d := exec.Declare(exec.Declare([2]int{}, 64, 0), 128, 4096)
	if d = exec.Declare(d, 0, 8192); d != [2]int{128, 4096} {
		t.Fatalf("merged bounds = %v", d)
	}
	streams := []exec.StreamSpec{{Name: "lo"}, {Name: "hi"}, {Name: "free"}}
	sizes := exec.ResolveSizes(streams, map[string][2]int{"lo": {1 << 20, 0}, "hi": {0, 4096}}, 0)
	want := map[string]int{"lo": 1 << 20, "hi": 4096, "free": exec.DefaultBufferBytes}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("sizes = %v, want %v", sizes, want)
	}
	if err := exec.CheckOptions("x", -1, 0); err == nil || !strings.Contains(err.Error(), "QueueCap") {
		t.Fatalf("negative QueueCap: %v", err)
	}
}
