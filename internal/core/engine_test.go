package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"datacutter/internal/leakcheck"
)

// source emits ints 0..N-1, one per buffer.
type source struct {
	BaseFilter
	n      int
	stream string
}

func (s *source) Process(ctx Ctx) error {
	for i := 0; i < s.n; i++ {
		if err := ctx.Write(s.stream, Buffer{Payload: i, Size: 8}); err != nil {
			return err
		}
	}
	return nil
}

// doubler reads ints, multiplies by 2, forwards.
type doubler struct {
	BaseFilter
	in, out string
}

func (d *doubler) Process(ctx Ctx) error {
	for {
		b, ok := ctx.Read(d.in)
		if !ok {
			return nil
		}
		if err := ctx.Write(d.out, Buffer{Payload: b.Payload.(int) * 2, Size: 8}); err != nil {
			return err
		}
	}
}

func pipelineGraph(n int) (*Graph, *[]int) {
	got := &[]int{}
	var mu sync.Mutex
	g := NewGraph()
	g.AddFilter("S", func() Filter { return &source{n: n, stream: "nums"} })
	g.AddFilter("D", func() Filter { return &doubler{in: "nums", out: "doubled"} })
	g.AddFilter("C", func() Filter { return &sharedCollector{in: "doubled", mu: &mu, got: got} })
	g.Connect("S", "D", "nums")
	g.Connect("D", "C", "doubled")
	return g, got
}

// sharedCollector shares one slice+mutex across all copies.
type sharedCollector struct {
	BaseFilter
	in  string
	mu  *sync.Mutex
	got *[]int
}

func (c *sharedCollector) Process(ctx Ctx) error {
	for {
		b, ok := ctx.Read(c.in)
		if !ok {
			return nil
		}
		c.mu.Lock()
		*c.got = append(*c.got, b.Payload.(int))
		c.mu.Unlock()
	}
}

func checkDoubled(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("collected %d values, want %d", len(got), n)
	}
	s := append([]int(nil), got...)
	sort.Ints(s)
	for i := 0; i < n; i++ {
		if s[i] != 2*i {
			t.Fatalf("sorted[%d] = %d, want %d", i, s[i], 2*i)
		}
	}
}

func TestPipelineSingleCopies(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(100)
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("D", "h0", 1).
		Place("C", "h0", 1)
	r, err := NewRunner(g, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, *got, 100)
}

func TestPipelineTransparentCopiesEveryPolicy(t *testing.T) {
	for _, pol := range []Policy{RoundRobin(), WeightedRoundRobin(), DemandDriven()} {
		t.Run(pol.Name(), func(t *testing.T) {
			leakcheck.Check(t)
			g, got := pipelineGraph(500)
			pl := NewPlacement().
				Place("S", "h0", 1).
				Place("D", "h0", 2).
				Place("D", "h1", 3).
				Place("D", "h2", 1).
				Place("C", "h0", 1)
			r, err := NewRunner(g, pl, Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			st, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkDoubled(t, *got, 500)
			if st.Streams["nums"].Buffers != 500 {
				t.Fatalf("nums buffers = %d", st.Streams["nums"].Buffers)
			}
			total := int64(0)
			for _, n := range st.Streams["nums"].PerTargetHost {
				total += n
			}
			if total != 500 {
				t.Fatalf("per-target totals = %d", total)
			}
		})
	}
}

func TestWRRDeliversProportionally(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(600)
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("D", "h1", 1).
		Place("D", "h2", 2).
		Place("C", "h0", 1)
	r, err := NewRunner(g, pl, Options{Policy: WeightedRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, *got, 600)
	per := st.Streams["nums"].PerTargetHost
	if per["h1"] != 200 || per["h2"] != 400 {
		t.Fatalf("WRR distribution = %v, want h1:200 h2:400", per)
	}
}

func TestDDGeneratesAcks(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(200)
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("D", "h0", 1).
		Place("D", "h1", 1).
		Place("C", "h0", 1)
	r, err := NewRunner(g, pl, Options{Policy: DemandDriven()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, *got, 200)
	if st.Streams["nums"].Acks != 200 {
		t.Fatalf("acks = %d, want 200", st.Streams["nums"].Acks)
	}
	if st.Streams["doubled"].Acks != 200 {
		t.Fatalf("doubled acks = %d, want 200", st.Streams["doubled"].Acks)
	}
}

func TestRRIgnoresAcks(t *testing.T) {
	g, _ := pipelineGraph(50)
	pl := NewPlacement().
		Place("S", "h0", 1).Place("D", "h0", 1).Place("C", "h0", 1)
	r, _ := NewRunner(g, pl, Options{Policy: RoundRobin()})
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams["nums"].Acks != 0 {
		t.Fatalf("RR produced %d acks", st.Streams["nums"].Acks)
	}
}

func TestMultipleUOWs(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(40)
	pl := NewPlacement().
		Place("S", "h0", 1).Place("D", "h0", 2).Place("C", "h0", 1)
	r, _ := NewRunner(g, pl, Options{UOWs: []any{"t0", "t1", "t2"}})
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(*got) != 120 {
		t.Fatalf("collected %d across 3 UOWs, want 120", len(*got))
	}
	if len(st.PerUOWSeconds) != 3 {
		t.Fatalf("per-UOW timings: %v", st.PerUOWSeconds)
	}
}

// uowEcho records the Work() descriptor it sees each unit of work.
type uowEcho struct {
	BaseFilter
	mu   sync.Mutex
	seen []any
}

func (u *uowEcho) Process(ctx Ctx) error {
	u.mu.Lock()
	u.seen = append(u.seen, ctx.Work())
	u.mu.Unlock()
	return nil
}

func TestWorkDescriptorReachesFilters(t *testing.T) {
	g := NewGraph()
	g.AddFilter("U", func() Filter { return &uowEcho{} })
	pl := NewPlacement().Place("U", "h0", 1)
	r, _ := NewRunner(g, pl, Options{UOWs: []any{7, 8}})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	u := r.Instances("U")[0].(*uowEcho)
	if len(u.seen) != 2 || u.seen[0] != 7 || u.seen[1] != 8 {
		t.Fatalf("seen = %v", u.seen)
	}
}

// failing fails on the k-th buffer.
type failing struct {
	BaseFilter
	in    string
	after int
}

func (f *failing) Process(ctx Ctx) error {
	for i := 0; ; i++ {
		_, ok := ctx.Read(f.in)
		if !ok {
			return nil
		}
		if i == f.after {
			return errors.New("synthetic failure")
		}
	}
}

func TestFilterErrorAbortsRun(t *testing.T) {
	g := NewGraph()
	g.AddFilter("S", func() Filter { return &source{n: 1_000_000, stream: "s"} })
	g.AddFilter("F", func() Filter { return &failing{in: "s", after: 3} })
	g.Connect("S", "F", "s")
	pl := NewPlacement().Place("S", "h0", 1).Place("F", "h0", 1)
	r, _ := NewRunner(g, pl, Options{QueueCap: 2})
	_, err := r.Run()
	if err == nil {
		t.Fatal("expected error")
	}
	if want := "synthetic failure"; !errorContains(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && (len(err.Error()) >= len(sub)) && (func() bool {
		s := err.Error()
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	}())
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	g.AddFilter("A", func() Filter { return &source{n: 1, stream: "x"} })
	g.AddFilter("B", func() Filter { return &doubler{in: "x", out: "y"} })
	g.Connect("A", "B", "x")
	g.Connect("B", "A", "y") // cycle
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}

	g2 := NewGraph()
	g2.AddFilter("A", func() Filter { return &source{n: 1, stream: "x"} })
	g2.Connect("A", "Missing", "x")
	if err := g2.Validate(); err == nil {
		t.Fatal("missing consumer not detected")
	}
}

func TestPlacementValidation(t *testing.T) {
	g, _ := pipelineGraph(1)
	pl := NewPlacement().Place("S", "h0", 1) // D and C unplaced
	if _, err := NewRunner(g, pl, Options{}); err == nil {
		t.Fatal("unplaced filters not detected")
	}
}

func TestPlacementAccumulates(t *testing.T) {
	pl := NewPlacement().Place("F", "h0", 1).Place("F", "h0", 2).Place("F", "h1", 1)
	if got := pl.TotalCopies("F"); got != 4 {
		t.Fatalf("TotalCopies = %d", got)
	}
	entries := pl.Of("F")
	if len(entries) != 2 || entries[0].Copies != 3 {
		t.Fatalf("entries = %v", entries)
	}
	hosts := pl.Hosts()
	if len(hosts) != 2 || hosts[0] != "h0" || hosts[1] != "h1" {
		t.Fatalf("hosts = %v", hosts)
	}
}

// sizeFilter records the buffer size its copy sees on a stream, producing
// one buffer or draining them.
type sizeFilter struct {
	BaseFilter
	stream  string
	got     int
	produce bool
}

func (d *sizeFilter) Process(ctx Ctx) error {
	d.got = ctx.BufferBytes(d.stream)
	if d.produce {
		return ctx.Write(d.stream, Buffer{Payload: 1, Size: 8})
	}
	for {
		if _, ok := ctx.Read(d.stream); !ok {
			return nil
		}
	}
}

// Every copy sees the run's BufferBytes option on every stream, the default
// when it is zero.
func TestBufferBytesOption(t *testing.T) {
	for _, c := range []struct{ opt, want int }{{0, 256 << 10}, {1000, 1000}, {4 << 20, 4 << 20}} {
		g := NewGraph()
		prod, cons := &sizeFilter{stream: "s", produce: true}, &sizeFilter{stream: "s"}
		g.AddFilter("P", func() Filter { return prod })
		g.AddFilter("C", func() Filter { return cons })
		g.Connect("P", "C", "s")
		pl := NewPlacement().Place("P", "h0", 1).Place("C", "h0", 1)
		r, err := NewRunner(g, pl, Options{BufferBytes: c.opt})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if prod.got != c.want || cons.got != c.want {
			t.Fatalf("BufferBytes %d: copies saw %d/%d, want %d", c.opt, prod.got, cons.got, c.want)
		}
	}
}

// ctxProbe checks the identity accessors.
type ctxProbe struct {
	BaseFilter
	mu    sync.Mutex
	hosts map[string]int
	total int
	idxs  map[int]bool
}

func (c *ctxProbe) Process(ctx Ctx) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hosts == nil {
		c.hosts = map[string]int{}
		c.idxs = map[int]bool{}
	}
	c.hosts[ctx.Host()]++
	c.total = ctx.TotalCopies()
	c.idxs[ctx.CopyIndex()] = true
	return nil
}

func TestCopyIdentity(t *testing.T) {
	shared := &ctxProbe{}
	g := NewGraph()
	g.AddFilter("P", func() Filter { return shared })
	pl := NewPlacement().Place("P", "h0", 2).Place("P", "h1", 3)
	r, _ := NewRunner(g, pl, Options{})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if shared.total != 5 {
		t.Fatalf("TotalCopies = %d", shared.total)
	}
	if shared.hosts["h0"] != 2 || shared.hosts["h1"] != 3 {
		t.Fatalf("host spread = %v", shared.hosts)
	}
	for i := 0; i < 5; i++ {
		if !shared.idxs[i] {
			t.Fatalf("copy index %d missing: %v", i, shared.idxs)
		}
	}
}

func TestStatsBuffersAndBytes(t *testing.T) {
	leakcheck.Check(t)
	g, _ := pipelineGraph(64)
	pl := NewPlacement().Place("S", "h0", 1).Place("D", "h0", 1).Place("C", "h0", 1)
	r, _ := NewRunner(g, pl, Options{})
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Streams["nums"].Bytes != 64*8 {
		t.Fatalf("bytes = %d", st.Streams["nums"].Bytes)
	}
	if st.Filters["D"].BuffersIn != 64 || st.Filters["D"].BuffersOut != 64 {
		t.Fatalf("filter D counters: %+v", st.Filters["D"])
	}
	if len(st.Filters["D"].WallSeconds) != 1 {
		t.Fatalf("per-copy timings missing")
	}
}

func TestFanInMultipleInputStreams(t *testing.T) {
	leakcheck.Check(t)
	// Two sources feed one collector over distinct streams.
	var mu sync.Mutex
	got := &[]int{}
	g := NewGraph()
	g.AddFilter("S1", func() Filter { return &source{n: 10, stream: "a"} })
	g.AddFilter("S2", func() Filter { return &source{n: 10, stream: "b"} })
	g.AddFilter("C", func() Filter { return &fanInCollector{mu: &mu, got: got} })
	g.Connect("S1", "C", "a")
	g.Connect("S2", "C", "b")
	pl := NewPlacement().Place("S1", "h0", 1).Place("S2", "h0", 1).Place("C", "h0", 1)
	r, _ := NewRunner(g, pl, Options{})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 20 {
		t.Fatalf("fan-in collected %d, want 20", len(*got))
	}
}

type fanInCollector struct {
	BaseFilter
	mu  *sync.Mutex
	got *[]int
}

func (c *fanInCollector) Process(ctx Ctx) error {
	for _, s := range []string{"a", "b"} {
		for {
			b, ok := ctx.Read(s)
			if !ok {
				break
			}
			c.mu.Lock()
			*c.got = append(*c.got, b.Payload.(int))
			c.mu.Unlock()
		}
	}
	return nil
}

func TestDDDirectsLoadAwayFromSlowConsumer(t *testing.T) {
	leakcheck.Check(t)
	// One fast and one artificially slow consumer copy set; DD should send
	// clearly more buffers to the fast host than RR's even split.
	run := func(pol Policy) map[string]int64 {
		var mu sync.Mutex
		got := &[]int{}
		g := NewGraph()
		g.AddFilter("S", func() Filter { return &source{n: 300, stream: "s"} })
		g.AddFilter("W", func() Filter { return &speedSensitive{out: "o"} })
		g.AddFilter("C", func() Filter { return &sharedCollector{in: "o", mu: &mu, got: got} })
		g.Connect("S", "W", "s")
		g.Connect("W", "C", "o")
		pl := NewPlacement().
			Place("S", "fast", 1).
			Place("W", "fast", 1).
			Place("W", "slow", 1).
			Place("C", "fast", 1)
		r, _ := NewRunner(g, pl, Options{Policy: pol, QueueCap: 8})
		st, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(*got) != 300 {
			t.Fatalf("lost buffers: %d", len(*got))
		}
		return st.Streams["s"].PerTargetHost
	}
	dd := run(DemandDriven())
	if dd["fast"] <= dd["slow"]*2 {
		t.Fatalf("DD did not favor fast host: %v", dd)
	}
	rr := run(RoundRobin())
	if rr["fast"] != rr["slow"] {
		t.Fatalf("RR should split evenly: %v", rr)
	}
}

// speedSensitive sleeps per buffer when running on the host named "slow",
// modeling a slow host without monopolizing the test machine's CPU.
type speedSensitive struct {
	BaseFilter
	out string
}

func (w *speedSensitive) Process(ctx Ctx) error {
	slow := ctx.Host() == "slow"
	for {
		b, ok := ctx.Read("s")
		if !ok {
			return nil
		}
		if slow {
			time.Sleep(2 * time.Millisecond)
		}
		if err := ctx.Write(w.out, b); err != nil {
			return err
		}
	}
}

func TestDuplicateFilterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	g.AddFilter("A", func() Filter { return &source{} })
	g.AddFilter("A", func() Filter { return &source{} })
}

func TestUnknownStreamReadPanics(t *testing.T) {
	g := NewGraph()
	g.AddFilter("A", func() Filter { return &badReader{} })
	pl := NewPlacement().Place("A", "h0", 1)
	r, _ := NewRunner(g, pl, Options{})
	_, err := r.Run()
	if err == nil {
		t.Fatal("expected error from panicking filter")
	}
	_ = fmt.Sprint(err)
}

// badReader panics by reading a stream that does not exist; the engine must
// convert the panic into a run error.
type badReader struct{ BaseFilter }

func (b *badReader) Process(ctx Ctx) error {
	ctx.Read("nonexistent")
	return nil
}

// Blocked-time accounting: a consumer that waits on a slow producer
// accrues read-blocked time, not busy time.
func TestBlockedTimeAccounting(t *testing.T) {
	g := NewGraph()
	g.AddFilter("P", func() Filter { return &slowProducer{} })
	g.AddFilter("C", func() Filter { return &sharedCollector{in: "s", mu: &sync.Mutex{}, got: &[]int{}} })
	g.Connect("P", "C", "s")
	pl := NewPlacement().Place("P", "h0", 1).Place("C", "h0", 1)
	r, _ := NewRunner(g, pl, Options{})
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	fs := st.Filters["C"]
	if fs.ReadBlockedSeconds[0] < 0.05 {
		t.Fatalf("consumer read-blocked = %v, want >= 50ms", fs.ReadBlockedSeconds[0])
	}
	if fs.BusySeconds[0] > fs.WallSeconds[0] {
		t.Fatalf("busy (%v) exceeds wall (%v)", fs.BusySeconds[0], fs.WallSeconds[0])
	}
}

type slowProducer struct{ BaseFilter }

func (s *slowProducer) Process(ctx Ctx) error {
	for i := 0; i < 3; i++ {
		time.Sleep(25 * time.Millisecond)
		if err := ctx.Write("s", Buffer{Payload: i, Size: 8}); err != nil {
			return err
		}
	}
	return nil
}
