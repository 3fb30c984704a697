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
		frag, err := rt.RunUOW(u, nil)
		if err != nil {
			t.Fatalf("uow %d: %v", u, err)
		}
		st.Merge(frag)
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
			go func() {
				_, err := rt.RunUOW(0, nil)
				done <- err
			}()
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
			if _, err := rt.RunUOW(1, nil); err == nil {
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
	if _, err := rt.RunUOW(0, nil); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if closed != 4 || len(rt.Instances("F")) != 3 {
		t.Fatalf("after Close: closed=%d instances=%d", closed, len(rt.Instances("F")))
	}
}

// Negative option values are refused; zero selects the default.
func TestCheckOptions(t *testing.T) {
	if err := exec.CheckOptions("x", -1, 0); err == nil || !strings.Contains(err.Error(), "QueueCap") {
		t.Fatalf("negative QueueCap: %v", err)
	}
	if err := exec.CheckOptions("x", 0, -1); err == nil || !strings.Contains(err.Error(), "BufferBytes") {
		t.Fatalf("negative BufferBytes: %v", err)
	}
	if err := exec.CheckOptions("x", 0, 0); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
}

// nopRemote is the Remote of a host whose copies send nothing off-host.
type nopRemote struct{}

func (nopRemote) Deliver(string, exec.Edge, exec.Buffer, int) error { return nil }
func (nopRemote) ProducerDone(string, int, int)                     {}
func (nopRemote) Ack(string, exec.Edge, int)                        {}

// earlySink records what it reads per unit of work and calls after once a
// unit, after its first read.
type earlySink struct {
	exec.BaseFilter
	got   map[int][]string
	after func()
}

func (k *earlySink) Process(ctx exec.Ctx) error {
	for first := true; ; first = false {
		b, ok := ctx.Read("s")
		if !ok {
			return nil
		}
		k.got[ctx.UOW()] = append(k.got[ctx.UOW()], b.Payload.(string))
		if first && k.after != nil {
			k.after()
		}
	}
}

// The inbound port on a host whose producers all run elsewhere: a peer may
// start unit n, and send its frames, before RunUOW(n) begins here, and a
// frame of unit n-1 may still arrive during unit n.
func TestInboundFramesBeforeRunUOW(t *testing.T) {
	leakcheck.Check(t)
	sink := &earlySink{got: map[int][]string{}}
	rt := exec.New(exec.Config{
		Engine: "test", Clock: exec.Wall(), Host: "sink", Remote: nopRemote{},
		Filters: []string{"S", "K"},
		Streams: []exec.StreamSpec{{Name: "s", From: "S", To: "K"}},
		New:     func(string) (exec.Filter, error) { return sink, nil },
	})
	if err := rt.Place([]elastic.Entry{{Filter: "S", Host: "src", Copies: 1}, {Filter: "K", Host: "sink", Copies: 1}}); err != nil {
		t.Fatal(err)
	}
	edge := func(u int) exec.Edge { return exec.Edge{UOW: u} }
	buf := func(p string) exec.Buffer { return exec.Buffer{Payload: p, Size: 1} }

	// Unit 0 arrives whole, buffer and end-of-work, before RunUOW(0).
	if !rt.Inject(edge(0), buf("0"), 0, nil) {
		t.Fatal("unit 0's buffer, arriving before RunUOW(0), was not taken")
	}
	rt.ProducerDone(0, 0)
	if _, err := rt.RunUOW(0, nil); err != nil {
		t.Fatal(err)
	}

	// Unit 1's first buffer arrives early; during the unit, unit 0's late
	// buffer and end-of-work are dropped, and unit 1's own keep coming.
	if !rt.Inject(edge(1), buf("1"), 0, nil) {
		t.Fatal("unit 1's buffer, arriving before RunUOW(1), was not taken")
	}
	var staleTaken, lateTaken bool
	sink.after = func() {
		staleTaken = rt.Inject(edge(0), buf("stale"), 0, nil)
		rt.ProducerDone(0, 0)
		lateTaken = rt.Inject(edge(1), buf("1b"), 0, nil)
		rt.ProducerDone(1, 0)
	}
	if _, err := rt.RunUOW(1, nil); err != nil {
		t.Fatal(err)
	}
	if staleTaken || !lateTaken {
		t.Fatalf("during unit 1: unit 0's buffer taken = %v, unit 1's taken = %v", staleTaken, lateTaken)
	}
	want := map[int][]string{0: {"0"}, 1: {"1", "1b"}}
	if !reflect.DeepEqual(sink.got, want) {
		t.Fatalf("the sink read %v, want %v", sink.got, want)
	}
}
