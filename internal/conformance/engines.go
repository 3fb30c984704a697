package conformance

import (
	"context"
	"fmt"
	"time"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/faults"
	"datacutter/internal/obs"
	"datacutter/internal/sim"
	"datacutter/internal/simrt"
)

// The three engine adapters build observationally equivalent runs from one
// Spec: same graph, same placement (entry order preserved — it defines
// copy-set target order and global copy indices on every engine), same
// per-stream policies, same queue capacity, same unit-of-work count.

// With s.Fused set, the graph every engine is handed is the contracted one:
// a fused transform is no filter of its own (nor placed), its input is no
// stream, and its outputs leave its carrier.

func buildGraph(s *Spec, rec *Recorder) *core.Graph {
	g := core.NewGraph()
	for _, f := range s.Filters {
		f := f
		if !s.fused(f.Name) {
			g.AddFilter(f.Name, func() core.Filter { return fuseChain(chainOf(s, f, rec)) })
		}
	}
	for _, st := range graphStreams(s) {
		g.Connect(st.From, st.To, st.Name)
	}
	return g
}

func graphStreams(s *Spec) []core.StreamSpec {
	var out []core.StreamSpec
	for _, st := range s.Streams {
		if !s.fused(st.To) {
			out = append(out, core.StreamSpec{Name: st.Name, From: s.carrier(st.From), To: st.To})
		}
	}
	return out
}

func buildPlacement(s *Spec) *core.Placement {
	pl := core.NewPlacement()
	for _, p := range s.Placement {
		if !s.fused(p.Filter) {
			pl.Place(p.Filter, p.Host, p.Copies)
		}
	}
	return pl
}

func policyNames(s *Spec) map[string]string {
	out := make(map[string]string, len(s.Streams))
	for _, st := range s.Streams {
		out[st.Name] = st.Policy
	}
	return out
}

func corePolicies(s *Spec) map[string]core.Policy {
	out := make(map[string]core.Policy, len(s.Streams))
	for _, st := range s.Streams {
		out[st.Name] = core.PolicyByName(st.Policy)
	}
	return out
}

func uowList(s *Spec) []any {
	out := make([]any, s.UOWs)
	for i := range out {
		out[i] = i
	}
	return out
}

func runCore(s *Spec, rec *Recorder) (*core.Stats, error) {
	r, err := core.NewRunner(buildGraph(s, rec), buildPlacement(s), core.Options{
		Policy:        core.RoundRobin(),
		StreamPolicy:  corePolicies(s),
		QueueCap:      s.QueueCap,
		UOWs:          uowList(s),
		ScaleSchedule: s.Scale,
	})
	if err != nil {
		return nil, err
	}
	return r.Run()
}

func runSimrt(s *Spec, rec *Recorder) (*core.Stats, error) {
	cl := cluster.New(sim.NewKernel())
	for _, h := range s.Hosts {
		cl.AddHost(cluster.HostSpec{
			Name: h.Name, Cores: 1, Speed: h.Speed, NICBandwidth: 100e6,
			Disks: []cluster.DiskSpec{{SeekSeconds: 0.001, Bandwidth: 50e6}},
		})
	}
	r, err := simrt.NewRunner(buildGraph(s, rec), buildPlacement(s), cl, simrt.Options{
		Policy:        core.RoundRobin(),
		StreamPolicy:  corePolicies(s),
		QueueCap:      s.QueueCap,
		UOWs:          uowList(s),
		ScaleSchedule: s.Scale,
	})
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// runDist executes the spec on the distributed engine over TCP loopback:
// one in-process worker per spec host. plans optionally installs a
// deterministic fault plan (internal/faults grammar) on named hosts before
// the workers accept their first connection; tune optionally adjusts the
// coordinator options (fault-mode runs enable retries and fast
// heartbeats); reg, when non-nil, collects the coordinator's metrics so
// fault-mode callers can assert recovery actually happened
// (coord.uow_retries).
func runDist(s *Spec, rec *Recorder, plans map[string]string, tune func(*dist.Options), reg *obs.Registry) (*core.Stats, error) {
	tok := registerRecorder(rec)
	defer releaseRecorder(tok)

	addrs := make(map[string]string, len(s.Hosts))
	var workers []*dist.Worker
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for _, h := range s.Hosts {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
		if spec := plans[h.Name]; spec != "" {
			plan, err := faults.ParsePlan(spec)
			if err != nil {
				return nil, err
			}
			w.SetFaults(plan.Injector())
		}
		go w.Serve()
		addrs[h.Name] = w.Addr()
	}

	g, entries, err := distGraph(s, rec, tok)
	if err != nil {
		return nil, err
	}

	opts := dist.Options{
		Policy:        "RR",
		StreamPolicy:  policyNames(s),
		QueueCap:      s.QueueCap,
		ScaleSchedule: s.Scale,
	}
	if tune != nil {
		tune(&opts)
	}
	if s.Warm && plans == nil {
		return runWarm(s, addrs, g, entries, opts)
	}
	if reg != nil {
		return dist.RunObserved(addrs, g, entries, opts, uowList(s), obs.New(nil, reg))
	}
	return dist.Run(addrs, g, entries, opts, uowList(s))
}

// runWarm runs a throwaway round of the spec, recorded nowhere, through a
// pool, then the checked round on the links the first left there. A host
// the checked round set up on a fresh dial fails the run: the mode would
// check nothing it does not already check.
func runWarm(s *Spec, addrs map[string]string, g dist.GraphSpec, entries []dist.PlacementEntry, opts dist.Options) (*core.Stats, error) {
	pool := dist.NewPool()
	defer pool.Close()
	throwaway := newRecorder()
	tok := registerRecorder(throwaway)
	defer releaseRecorder(tok)
	gw, _, err := distGraph(s, throwaway, tok)
	if err != nil {
		return nil, err
	}
	if _, err := pool.Run(context.Background(), addrs, gw, entries, opts, uowList(s), nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	reg := obs.NewRegistry()
	st, err := pool.Run(context.Background(), addrs, g, entries, opts, uowList(s), obs.New(nil, reg))
	if n := reg.Counter("dist.links_reused").Value(); err == nil && n < int64(len(addrs)) {
		err = fmt.Errorf("the warm round set %d of %d hosts up on pooled links", n, len(addrs))
	}
	return st, err
}

// distGraph is the spec as the dist engine takes it: one registered-kind
// filter spec per graph filter, the streams, and the placement entries.
func distGraph(s *Spec, rec *Recorder, tok uint64) (dist.GraphSpec, []dist.PlacementEntry, error) {
	g := dist.GraphSpec{Streams: graphStreams(s)}
	for _, f := range s.Filters {
		if s.fused(f.Name) {
			continue
		}
		fs, err := distSpec(chainOf(s, f, rec), tok)
		if err != nil {
			return g, nil, err
		}
		g.Filters = append(g.Filters, fs)
	}
	var entries []dist.PlacementEntry
	for _, p := range s.Placement {
		if !s.fused(p.Filter) {
			entries = append(entries, dist.PlacementEntry{Filter: p.Filter, Host: p.Host, Copies: p.Copies})
		}
	}
	return g, entries, nil
}

// faultTune is the coordinator configuration every fault-mode run uses:
// recovery on (UOW retries + replanning) and heartbeats fast enough that a
// killed loopback worker is declared dead in well under a second.
func faultTune(o *dist.Options) {
	o.MaxUOWRetries = 3
	o.HeartbeatInterval = 100 * time.Millisecond
	o.HeartbeatMisses = 5
}

// engineNames in canonical order.
var engineNames = []string{"core", "simrt", "dist"}

func runEngine(engine string, s *Spec, rec *Recorder) (*core.Stats, error) {
	switch engine {
	case "core":
		return runCore(s, rec)
	case "simrt":
		return runSimrt(s, rec)
	case "dist":
		return runDist(s, rec, nil, nil, nil)
	}
	return nil, fmt.Errorf("conformance: unknown engine %q", engine)
}
