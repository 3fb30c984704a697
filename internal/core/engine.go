package core

import (
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
	// BufferBytes is the stream buffer size every copy reads from
	// Ctx.BufferBytes (default 256 KiB); a producer may clamp it.
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
}

// Validate rejects option values that would otherwise be silently coerced
// to defaults. Zero means "use the default"; negative values are always a
// caller bug.
func (o *Options) Validate() error { return exec.CheckOptions("core", o.QueueCap, o.BufferBytes) }

// Runner executes a Graph under a Placement on the real engine: the copy
// runtime (internal/exec) on the wall clock with every copy set local, so
// every transparent copy is a goroutine, every copy set shares one queue
// (demand-based balance within a host), and writer policies distribute
// buffers across copy sets.
type Runner struct {
	g     *Graph
	opts  Options
	rt    *exec.Runtime
	stats *Stats
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
	r := &Runner{g: g, opts: opts, stats: NewStats(g)}
	r.rt = exec.New(exec.Config{
		Engine: "core", Clock: exec.Wall(),
		Filters: g.Filters(), Streams: g.Streams(),
		New:      func(name string) (Filter, error) { return g.Factory(name)(), nil },
		Policies: exec.PolicyConfig{Default: opts.Policy, PerStream: opts.StreamPolicy},
		QueueCap: opts.QueueCap, BufferBytes: opts.BufferBytes, Obs: opts.Obs,
	})
	if err := r.rt.Place(pl.Entries(g)); err != nil {
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
// scale schedule's due steps change copy-set membership (exec.Runtime.Run).
func (r *Runner) Run() (*Stats, error) {
	if err := elastic.ValidateSchedule("core", r.opts.ScaleSchedule, r.g.Filters(), nil); err != nil {
		return r.stats, err
	}
	// The real engine's time domain is wall seconds since the run started.
	r.opts.Obs.SetClock(obs.NewWallClock())
	return r.stats, r.rt.Run(r.opts.UOWs, r.opts.ScaleSchedule, r.stats)
}
