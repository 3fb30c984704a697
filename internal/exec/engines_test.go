package exec_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
	"datacutter/internal/sim"
	"datacutter/internal/simrt"
)

// Engine-level checks of what the shared runtime guarantees on all three
// engines: panic containment in every phase with one error shape, and one
// metric and event vocabulary.

// tinyGraph is S -> K on one host: S computes, then writes n buffers; K is
// slow per buffer. With queue capacity 1 that forces a read stall (K waits
// for S's first buffer) and write stalls (S waits for K) on every engine.
type tinySource struct {
	n       int
	panicAt panicAt
}

// panicAt names the phase a tiny filter panics in ("" = none).
type panicAt string

func (at panicAt) phase(p string) error {
	if string(at) == p {
		panic("synthetic " + p + " panic")
	}
	return nil
}

func (s *tinySource) Init(core.Ctx) error     { return s.panicAt.phase("init") }
func (s *tinySource) Finalize(core.Ctx) error { return s.panicAt.phase("finalize") }
func (s *tinySource) Process(ctx core.Ctx) error {
	s.panicAt.phase("process")
	time.Sleep(5 * time.Millisecond)
	ctx.Compute(0.005)
	for i := 0; i < s.n; i++ {
		if err := ctx.Write("t", core.Buffer{Payload: []byte{byte(i)}, Size: 8}); err != nil {
			return err
		}
	}
	return nil
}

// tinyTail swallows stream t inside a fusion and panics where told — in
// Process with its upstream part still producing.
type tinyTail struct{ panicAt panicAt }

func (f tinyTail) Init(core.Ctx) error     { return f.panicAt.phase("init") }
func (f tinyTail) Finalize(core.Ctx) error { return f.panicAt.phase("finalize") }
func (f tinyTail) Process(ctx core.Ctx) error {
	for {
		if _, ok := ctx.Read("t"); !ok {
			return nil
		}
		f.panicAt.phase("process")
	}
}

// newTinySource builds filter S: the source panicking in phase at, or —
// fused — a healthy source with the panicking tail fused onto stream t.
func newTinySource(at string, fused bool) core.Filter {
	if fused {
		return core.Fuse(&tinySource{n: 6}, tinyTail{panicAt(at)}, "t")
	}
	return &tinySource{n: 6, panicAt: panicAt(at)}
}

type tinySink struct{ core.BaseFilter }

func (tinySink) Process(ctx core.Ctx) error {
	for {
		if _, ok := ctx.Read("t"); !ok {
			return nil
		}
		time.Sleep(time.Millisecond)
		ctx.Compute(0.001)
	}
}

func init() {
	dist.RegisterFilter("tiny.source", func(params []byte) (core.Filter, error) {
		return newTinySource(string(params), false), nil
	})
	dist.RegisterFilter("tiny.fused", func(params []byte) (core.Filter, error) {
		return newTinySource(string(params), true), nil
	})
	dist.RegisterFilter("tiny.sink", func([]byte) (core.Filter, error) { return tinySink{}, nil })
}

// tinyCoreGraph is S -> K, or — fused — S alone, stream t inside it.
func tinyCoreGraph(panicAt string, fused bool) (*core.Graph, *core.Placement) {
	g := core.NewGraph()
	g.AddFilter("S", func() core.Filter { return newTinySource(panicAt, fused) })
	pl := core.NewPlacement().Place("S", "h", 1)
	if !fused {
		g.AddFilter("K", func() core.Filter { return tinySink{} })
		g.Connect("S", "K", "t")
		pl.Place("K", "h", 1)
	}
	return g, pl
}

// tinyRun runs the tiny graph on one engine under DD with queue capacity 1.
// w is the dist engine's worker (nil elsewhere).
func tinyRun(engine, panicAt string, fused bool, o *obs.Observer, w *dist.Worker) error {
	switch engine {
	case "core":
		g, pl := tinyCoreGraph(panicAt, fused)
		r, err := core.NewRunner(g, pl, core.Options{Policy: core.DemandDriven(), QueueCap: 1, Obs: o})
		if err != nil {
			return err
		}
		_, err = r.Run()
		return err
	case "simrt":
		cl := cluster.New(sim.NewKernel())
		cl.AddHost(cluster.HostSpec{Name: "h", Cores: 2, Speed: 1, NICBandwidth: 100e6,
			Disks: []cluster.DiskSpec{{SeekSeconds: 0.001, Bandwidth: 50e6}}})
		g, pl := tinyCoreGraph(panicAt, fused)
		r, err := simrt.NewRunner(g, pl, cl, simrt.Options{Policy: core.DemandDriven(), QueueCap: 1, Obs: o})
		if err != nil {
			return err
		}
		_, err = r.Run()
		return err
	}
	spec := dist.GraphSpec{
		Filters: []dist.FilterSpec{{Name: "S", Kind: "tiny.source", Params: []byte(panicAt)}, {Name: "K", Kind: "tiny.sink"}},
		Streams: []core.StreamSpec{{Name: "t", From: "S", To: "K"}},
	}
	pl := []dist.PlacementEntry{{Filter: "S", Host: "h", Copies: 1}, {Filter: "K", Host: "h", Copies: 1}}
	if fused {
		spec.Filters[0].Kind = "tiny.fused"
		spec.Filters, spec.Streams, pl = spec.Filters[:1], nil, pl[:1]
	}
	_, err := dist.Run(map[string]string{"h": w.Addr()}, spec, pl, dist.Options{Policy: "DD", QueueCap: 1}, nil)
	return err
}

func startWorker(t *testing.T, o *obs.Observer) *dist.Worker {
	t.Helper()
	w, err := dist.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		w.SetObserver(o)
	}
	go w.Serve()
	t.Cleanup(w.Close)
	return w
}

// A panicking filter must fail its own run — in any phase, on any engine,
// with the failure attributed "<engine>: filter F copy N (phase): …" — and
// nothing else: a dist worker is shared by every tenant, so it must accept
// and complete the next session afterwards. The same holds when the panic
// is in the downstream part of a fusion: it is filter S's failure.
func TestPanicContainedInEveryPhaseOnEveryEngine(t *testing.T) {
	for _, engine := range []string{"core", "simrt", "dist"} {
		for _, phase := range []string{"init", "process", "finalize"} {
			for _, fused := range []bool{false, true} {
				name := engine + "/" + phase
				if fused {
					name += "/fused"
				}
				t.Run(name, func(t *testing.T) {
					leakcheck.Check(t)
					var w *dist.Worker
					if engine == "dist" {
						w = startWorker(t, nil)
					}
					err := tinyRun(engine, phase, fused, nil, w)
					want := fmt.Sprintf("%s: filter S copy 0 (%s): filter panicked: synthetic %s panic", engine, phase, phase)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error = %v, want it to contain %q", err, want)
					}
					if w != nil {
						if err := tinyRun(engine, "", fused, nil, w); err != nil {
							t.Fatalf("worker did not complete the next session: %v", err)
						}
					}
				})
			}
		}
	}
}

// The runtime registers its metrics and emits its events once, for every
// engine: the same tiny run must yield the same metric names (modulo the
// engine prefix) and the same event kinds on all three. What is excluded is
// not the runtime's: the wire's own counters on a dist worker (dist.rx.*,
// dist.tx.*, dist.redials) and the send event, which marks a transfer —
// modelled on simrt, absent on one host elsewhere.
func TestOneMetricAndEventVocabulary(t *testing.T) {
	leakcheck.Check(t)
	wire := regexp.MustCompile(`^(rx|tx)\.|^redials$`)
	vocab := map[string][2]string{}
	for _, engine := range []string{"core", "simrt", "dist"} {
		ring, reg := obs.NewRingSink(4096), obs.NewRegistry()
		o := obs.New(ring, reg)
		var w *dist.Worker
		if engine == "dist" {
			w = startWorker(t, o)
		}
		if err := tinyRun(engine, "", false, o, w); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		var names []string
		for _, n := range reg.Names() {
			rest, ok := strings.CutPrefix(n, engine+".")
			if !ok {
				t.Fatalf("%s registered %q outside its prefix", engine, n)
			}
			if !wire.MatchString(rest) {
				names = append(names, rest)
			}
		}
		kinds := map[string]bool{}
		for _, e := range ring.Events() {
			if e.Kind != obs.KindSend {
				kinds[e.Kind.String()] = true
			}
		}
		var ks []string
		for k := range kinds {
			ks = append(ks, k)
		}
		sort.Strings(names)
		sort.Strings(ks)
		vocab[engine] = [2]string{strings.Join(names, " "), strings.Join(ks, " ")}
	}
	const wantMetrics = "filter.K.service_seconds filter.S.service_seconds read_stall_seconds " +
		"stream.t.acks stream.t.buffers stream.t.bytes write_stall_seconds"
	const wantKinds = "ack enqueue pick process-end process-start stall-end stall-start"
	for engine, v := range vocab {
		if v[0] != wantMetrics {
			t.Errorf("%s metrics: %s\nwant:        %s", engine, v[0], wantMetrics)
		}
		if v[1] != wantKinds {
			t.Errorf("%s event kinds: %s\nwant:           %s", engine, v[1], wantKinds)
		}
	}
}
