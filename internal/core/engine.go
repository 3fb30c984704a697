package core

import (
	"sync"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
)

// Options configures a run on the real (goroutine) engine. The zero value
// is usable: RR policy, queue capacity 8, 256 KiB buffers, one unit of work.
type Options struct {
	// Policy is the default writer policy for every stream (RoundRobin if
	// nil).
	Policy Policy
	// StreamPolicy overrides the policy for individual streams by name.
	StreamPolicy map[string]Policy
	// QueueCap is the per-copy-set queue capacity in buffers (default 8).
	QueueCap int
	// BufferBytes is the default stream buffer size the runtime proposes;
	// it is clamped by the filters' DeclareBuffer bounds (default 256 KiB).
	BufferBytes int
	// UOWs describes the units of work; each entry is passed to the
	// filters via Ctx.Work. Nil means a single unit of work with a nil
	// descriptor.
	UOWs []any
	// Obs attaches the observability subsystem: buffer-lifecycle trace
	// events and live metrics (see internal/obs). Nil disables
	// instrumentation at near-zero hot-path cost.
	Obs *obs.Observer
	// ScaleSchedule seeds deterministic copy-set membership changes at
	// work-cycle boundaries: before unit of work BeforeUOW, the (Filter,
	// Host) entry's copy count becomes Copies (see elastic.ScaleStep and
	// exec.Runtime.Place).
	ScaleSchedule []elastic.ScaleStep
	// Elastic enables the live autoscale controller: it samples copy-set
	// queue depth, DD ack-window occupancy, and p95 filter service time
	// every Interval, reweights WRR streams from observed throughput
	// mid-cycle, and applies copy-count changes at the next work-cycle
	// boundary, bounded by the config's Min/MaxCopies and Budget.
	Elastic *elastic.Config
	// StealWork lets a consumer copy with an empty queue opportunistically
	// drain sibling copy sets' queues on the same stream. Transparent
	// copies make any copy interchangeable, and deliveries carry their
	// producer-side ack path, so stolen buffers acknowledge the correct
	// window. Off by default: it trades strict per-host delivery placement
	// for latency, so replay-exact per-host accounting no longer matches
	// the writer's picks.
	StealWork bool
}

// Validate rejects option values that would otherwise be silently coerced
// to defaults. Zero means "use the default"; negative values are always a
// caller bug.
func (o *Options) Validate() error { return exec.CheckOptions("core", o.QueueCap, o.BufferBytes) }

// Runner executes a Graph under a Placement on the real engine: the copy
// runtime (internal/exec) on the wall clock with every copy set local, so
// every transparent copy is a goroutine, every copy set shares one queue
// (demand-based balance within a host), and writer policies distribute
// buffers across copy sets. What the Runner adds is the live autoscale
// controller and work stealing (elastic.go).
type Runner struct {
	g    *Graph
	opts Options
	rt   *exec.Runtime
	// cur is the effective placement; the scale schedule and the autoscale
	// controller mutate it between units of work.
	cur   []elastic.Entry
	stats *Stats
	steal *stealClock // nil unless Options.StealWork

	// pending holds copy-count changes the autoscale controller proposed
	// mid-cycle, applied at the next work-cycle boundary (see elastic.go).
	pendMu  sync.Mutex
	pending []elastic.Decision
}

// NewRunner validates the graph and placement and instantiates one filter
// instance per transparent copy. Instances persist across units of work, as
// in the paper's work-cycle model.
func NewRunner(g *Graph, pl *Placement, opts Options) (*Runner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(g); err != nil {
		return nil, err
	}
	r := &Runner{g: g, opts: opts, cur: pl.Entries(g), stats: NewStats(g)}
	clock := exec.Wall()
	if opts.StealWork {
		r.steal = &stealClock{Clock: clock}
		clock = r.steal
	}
	r.rt = exec.New(exec.Config{
		Engine: "core", Clock: clock,
		Filters: g.Filters(), Streams: g.Streams(),
		New:      func(name string) (Filter, error) { return g.Factory(name)(), nil },
		Policies: exec.PolicyConfig{Default: opts.Policy, PerStream: opts.StreamPolicy},
		QueueCap: opts.QueueCap, Obs: opts.Obs,
	})
	if err := r.rt.Place(r.cur); err != nil {
		return nil, err
	}
	return r, nil
}

// Instances returns the filter instances for a filter name in global copy
// order, so callers can retrieve results a sink filter accumulated.
func (r *Runner) Instances(name string) []Filter { return r.rt.Instances(name) }

// Stats returns the accumulated statistics. Valid after Run.
func (r *Runner) Stats() *Stats { return r.stats }

// Run executes every unit of work sequentially and returns the accumulated
// stats. The first filter error aborts the run. Between units of work the
// effective placement is re-derived from the scale schedule and any
// copy-count changes the live autoscale controller proposed during the
// previous cycle, and the runtime spawns and retires copies to match.
func (r *Runner) Run() (*Stats, error) {
	uows := r.opts.UOWs
	if len(uows) == 0 {
		uows = []any{nil}
	}
	if err := elastic.ValidateSchedule("core", r.opts.ScaleSchedule, r.g.Filters(), nil); err != nil {
		return r.stats, err
	}
	// The real engine's time domain is wall seconds since the run started.
	r.opts.Obs.SetClock(obs.NewWallClock())
	start := time.Now()
	for i, work := range uows {
		due := elastic.StepsAt(r.opts.ScaleSchedule, i)
		pending, reasons := r.drainPending(i)
		if due = append(due, pending...); len(due) > 0 {
			next := elastic.Apply(r.cur, due)
			if err := r.rt.Place(next); err != nil {
				return r.stats, err
			}
			elastic.RecordScaleDiff(r.opts.Obs, r.cur, next, i,
				func(filter, host string) string { return reasons[scaleKey{filter, host}] })
			r.cur = next
		}
		t0 := time.Now()
		if err := r.runUOW(i, work); err != nil {
			return r.stats, err
		}
		r.stats.PerUOWSeconds = append(r.stats.PerUOWSeconds, time.Since(t0).Seconds())
	}
	r.stats.WallSeconds = time.Since(start).Seconds()
	return r.stats, nil
}

// runUOW drives the runtime's three phases back to back, with the autoscale
// controller sampling load for the duration of Process.
func (r *Runner) runUOW(uow int, work any) error {
	if r.steal != nil {
		r.steal.reset()
	}
	decls, err := r.rt.Init(uow, work, r.stats)
	if err != nil {
		return err
	}
	var ctl sync.WaitGroup
	stop := make(chan struct{})
	if r.opts.Elastic != nil {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			r.elasticLoop(uow, stop)
		}()
	}
	err = r.rt.Process(exec.ResolveSizes(r.g.Streams(), decls, r.opts.BufferBytes))
	close(stop)
	ctl.Wait()
	if err != nil {
		return err
	}
	_, err = r.rt.Finalize()
	return err
}
