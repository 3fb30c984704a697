package exec_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/exec"
	"datacutter/internal/leakcheck"
	"datacutter/internal/sim"
	"datacutter/internal/simrt"
)

// Cross-engine equivalence: the same graph (one producer, consumer copy
// sets hostA×1 + hostB×2), the same buffer count, and the same policy must
// yield the same per-target delivery distribution on every engine, because
// the pick/window/ack logic is the one exec.StreamWriter implementation.
// RR and WRR ignore acknowledgments, so their distributions are exact and
// compared across all three engines (core goroutines, simrt virtual time,
// dist TCP loopback). DD and DD/8 react to consumer timing, which differs
// by engine, so for those the invariants are: every buffer delivered,
// acknowledgments flowed, and no target oversupplied beyond the total.

const equivN = 96

// expected exact splits for the ack-free policies with targets A×1, B×2.
var equivExact = map[string]map[string]int64{
	"RR":  {"hostA": 48, "hostB": 48},
	"WRR": {"hostA": 32, "hostB": 64},
}

var equivPolicies = []string{"RR", "WRR", "DD", "DD/8"}

// ---- shared test filters (core.Ctx works on every engine) ----

type equivSource struct {
	core.BaseFilter
	n int
}

func (s *equivSource) Process(ctx core.Ctx) error {
	for i := 0; i < s.n; i++ {
		if err := ctx.Write("nums", core.Buffer{Payload: []byte{byte(i)}, Size: 64}); err != nil {
			return err
		}
	}
	return nil
}

type equivSink struct{ core.BaseFilter }

func (s *equivSink) Process(ctx core.Ctx) error {
	for {
		if _, ok := ctx.Read("nums"); !ok {
			return nil
		}
	}
}

func init() {
	dist.RegisterFilter("equiv.source", func(params []byte) (core.Filter, error) {
		return &equivSource{n: int(params[0])}, nil
	})
	dist.RegisterFilter("equiv.sink", func([]byte) (core.Filter, error) {
		return &equivSink{}, nil
	})
}

func equivGraph() *core.Graph {
	g := core.NewGraph()
	g.AddFilter("S", func() core.Filter { return &equivSource{n: equivN} })
	g.AddFilter("K", func() core.Filter { return &equivSink{} })
	g.Connect("S", "K", "nums")
	return g
}

func equivPlacement() *core.Placement {
	return core.NewPlacement().
		Place("S", "hostA", 1).
		Place("K", "hostA", 1).
		Place("K", "hostB", 2)
}

// checkDist validates one engine's resulting distribution for a policy.
func checkDist(t *testing.T, engine, pol string, per map[string]int64, acks int64) {
	t.Helper()
	total := int64(0)
	for _, v := range per {
		total += v
	}
	if total != equivN {
		t.Fatalf("%s/%s: delivered %d of %d: %v", engine, pol, total, equivN, per)
	}
	if want, exact := equivExact[pol]; exact {
		got := map[string]int64{}
		for h, v := range per {
			got[h] = v
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: distribution %v, want %v", engine, pol, got, want)
		}
		if acks != 0 {
			t.Fatalf("%s/%s: ack-free policy produced %d acks", engine, pol, acks)
		}
		return
	}
	// Demand driven: every ack is a real message and the window kept every
	// target's share legal (no target can exceed the total; acks bounded by
	// one per buffer).
	if acks <= 0 || acks > equivN {
		t.Fatalf("%s/%s: acks = %d, want 1..%d", engine, pol, acks, equivN)
	}
}

// checkShape validates that an engine reports filter stats in the one shape
// the runtime fills: per-copy series of length Copies, indexed by global
// copy index and summed over units of work, whose busy and stream-blocked
// parts add up to the wall time; and buffer counts on both stream ends.
func checkShape(t *testing.T, engine string, st *core.Stats) {
	t.Helper()
	for name, copies := range map[string]int{"S": 1, "K": 3} {
		fs := st.Filters[name]
		if fs.Copies != copies || len(fs.BusySeconds) != copies || len(fs.WallSeconds) != copies ||
			len(fs.ReadBlockedSeconds) != copies || len(fs.WriteBlockedSeconds) != copies {
			t.Fatalf("%s: filter %s stats shape %+v, want %d copies", engine, name, fs, copies)
		}
		for i := 0; i < copies; i++ {
			busy, wall := fs.BusySeconds[i], fs.WallSeconds[i]
			parts := busy + fs.ReadBlockedSeconds[i] + fs.WriteBlockedSeconds[i]
			if wall <= 0 || busy < -1e-9 || math.Abs(parts-wall) > 1e-9+1e-6*wall {
				t.Fatalf("%s: filter %s copy %d: busy %g + read %g + write %g != wall %g", engine, name, i,
					busy, fs.ReadBlockedSeconds[i], fs.WriteBlockedSeconds[i], wall)
			}
		}
	}
	if out, in := st.Filters["S"].BuffersOut, st.Filters["K"].BuffersIn; out != equivN || in != equivN {
		t.Fatalf("%s: S wrote %d, K read %d, want %d", engine, out, in, equivN)
	}
}

func runCoreEquiv(t *testing.T, pol string) *core.Stats {
	t.Helper()
	r, err := core.NewRunner(equivGraph(), equivPlacement(), core.Options{Policy: core.PolicyByName(pol)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runSimEquiv(t *testing.T, pol string) *core.Stats {
	t.Helper()
	k := sim.NewKernel()
	cl := cluster.New(k)
	for _, h := range []string{"hostA", "hostB"} {
		cl.AddHost(cluster.HostSpec{
			Name: h, Cores: 1, Speed: 1, NICBandwidth: 100e6,
			Disks: []cluster.DiskSpec{{SeekSeconds: 0.001, Bandwidth: 50e6}},
		})
	}
	r, err := simrt.NewRunner(equivGraph(), equivPlacement(), cl, simrt.Options{Policy: core.PolicyByName(pol)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runDistEquiv(t *testing.T, pol string) *core.Stats {
	t.Helper()
	addrs := make(map[string]string, 2)
	for _, host := range []string{"hostA", "hostB"} {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		addrs[host] = w.Addr()
		t.Cleanup(w.Close)
	}
	g := dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "S", Kind: "equiv.source", Params: []byte{byte(equivN)}},
			{Name: "K", Kind: "equiv.sink"},
		},
		Streams: []core.StreamSpec{{Name: "nums", From: "S", To: "K"}},
	}
	st, err := dist.Run(addrs, g, []dist.PlacementEntry{
		{Filter: "S", Host: "hostA", Copies: 1},
		{Filter: "K", Host: "hostA", Copies: 1},
		{Filter: "K", Host: "hostB", Copies: 2},
	}, dist.Options{Policy: pol}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCrossEngineEquivalence(t *testing.T) {
	type runner struct {
		name string
		run  func(*testing.T, string) *core.Stats
	}
	engines := []runner{
		{"core", runCoreEquiv},
		{"simrt", runSimEquiv},
		{"dist", runDistEquiv},
	}
	for _, pol := range equivPolicies {
		t.Run(pol, func(t *testing.T) {
			leakcheck.Check(t)
			for _, e := range engines {
				st := e.run(t, pol)
				checkDist(t, e.name, pol, st.Streams["nums"].PerTargetHost, st.Streams["nums"].Acks)
				checkShape(t, e.name, st)
			}
		})
	}
}

// The ack-free distributions must also be bit-identical between core and
// simrt when the copy-set layout varies — not just on the layout the exact
// table above covers.
func TestCrossEngineRRAndWRRLayouts(t *testing.T) {
	leakcheck.Check(t)
	layouts := [][]struct {
		host   string
		copies int
	}{
		{{"hostA", 1}, {"hostB", 1}, {"hostC", 1}},
		{{"hostA", 2}, {"hostB", 3}},
		{{"hostA", 1}, {"hostB", 4}, {"hostC", 2}},
	}
	for li, lay := range layouts {
		for _, pol := range []string{"RR", "WRR"} {
			t.Run(fmt.Sprintf("layout%d/%s", li, pol), func(t *testing.T) {
				build := func() (*core.Graph, *core.Placement, []string) {
					g := equivGraph()
					pl := core.NewPlacement().Place("S", "hostA", 1)
					hosts := []string{"hostA"}
					seen := map[string]bool{"hostA": true}
					for _, e := range lay {
						pl.Place("K", e.host, e.copies)
						if !seen[e.host] {
							hosts = append(hosts, e.host)
							seen[e.host] = true
						}
					}
					return g, pl, hosts
				}
				g, pl, _ := build()
				r, err := core.NewRunner(g, pl, core.Options{Policy: core.PolicyByName(pol)})
				if err != nil {
					t.Fatal(err)
				}
				cst, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}

				g, pl, hosts := build()
				k := sim.NewKernel()
				cl := cluster.New(k)
				for _, h := range hosts {
					cl.AddHost(cluster.HostSpec{
						Name: h, Cores: 1, Speed: 1, NICBandwidth: 100e6,
						Disks: []cluster.DiskSpec{{SeekSeconds: 0.001, Bandwidth: 50e6}},
					})
				}
				sr, err := simrt.NewRunner(g, pl, cl, simrt.Options{Policy: core.PolicyByName(pol)})
				if err != nil {
					t.Fatal(err)
				}
				sst, err := sr.Run()
				if err != nil {
					t.Fatal(err)
				}

				cper := cst.Streams["nums"].PerTargetHost
				sper := sst.Streams["nums"].PerTargetHost
				if !reflect.DeepEqual(cper, sper) {
					t.Fatalf("core %v != simrt %v", cper, sper)
				}
			})
		}
	}
}

// Per-stream overrides resolve through the same exec.PolicyConfig on core
// and simrt: a DD default with a WRR override on the stream must behave as
// pure WRR (exact split, zero acks) on both engines.
func TestCrossEngineStreamPolicyOverride(t *testing.T) {
	leakcheck.Check(t)
	want := equivExact["WRR"]

	r, err := core.NewRunner(equivGraph(), equivPlacement(), core.Options{
		Policy:       core.DemandDriven(),
		StreamPolicy: map[string]core.Policy{"nums": core.WeightedRoundRobin()},
	})
	if err != nil {
		t.Fatal(err)
	}
	cst, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if per := cst.Streams["nums"].PerTargetHost; !reflect.DeepEqual(per, want) {
		t.Fatalf("core override: %v, want %v", per, want)
	}
	if cst.Streams["nums"].Acks != 0 {
		t.Fatal("core override still produced acks")
	}

	k := sim.NewKernel()
	cl := cluster.New(k)
	for _, h := range []string{"hostA", "hostB"} {
		cl.AddHost(cluster.HostSpec{
			Name: h, Cores: 1, Speed: 1, NICBandwidth: 100e6,
			Disks: []cluster.DiskSpec{{SeekSeconds: 0.001, Bandwidth: 50e6}},
		})
	}
	sr, err := simrt.NewRunner(equivGraph(), equivPlacement(), cl, simrt.Options{
		Policy:       core.DemandDriven(),
		StreamPolicy: map[string]core.Policy{"nums": core.WeightedRoundRobin()},
	})
	if err != nil {
		t.Fatal(err)
	}
	sst, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if per := sst.Streams["nums"].PerTargetHost; !reflect.DeepEqual(per, want) {
		t.Fatalf("simrt override: %v, want %v", per, want)
	}

	// And the parse path used by dist/flags resolves to the same writers.
	cfg, err := exec.ParsePolicies("DD", map[string]string{"nums": "WRR"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.For("nums").Name() != "WRR" || cfg.For("other").Name() != "DD" {
		t.Fatalf("parsed config resolves %s/%s", cfg.For("nums").Name(), cfg.For("other").Name())
	}
}
