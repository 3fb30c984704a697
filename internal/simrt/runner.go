// Package simrt executes a core filter graph on a simulated heterogeneous
// cluster in virtual time. It is the second engine for internal/core: the
// same Graph, Placement, Filter implementations, and — crucially — the very
// same Policy objects (RR, WRR, DD) drive buffer distribution, so scheduling
// behaviour measured here is the behaviour of the production code, not a
// re-implementation.
//
// Filters run as simulated processes. Ctx.Compute charges the host's
// processor-sharing CPU (where background jobs compete at equal priority),
// Ctx.ChargeDisk charges the host's disks, buffer writes occupy sender and
// receiver NICs for their wire time, and demand-driven acknowledgments are
// real small messages that queue on the same NICs — reproducing the paper's
// observation that DD ack traffic is costly on slow networks.
package simrt

import (
	"fmt"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
	"datacutter/internal/sim"
)

// Options configures a simulated run.
type Options struct {
	// Policy is the default writer policy (RoundRobin if nil);
	// StreamPolicy overrides per stream.
	Policy       core.Policy
	StreamPolicy map[string]core.Policy
	// QueueCap is the per-copy-set queue capacity in buffers (default 8).
	QueueCap int
	// BufferBytes is the stream buffer size every copy reads from
	// Ctx.BufferBytes (default 256 KiB); a producer may clamp it.
	BufferBytes int
	// AckBytes is the size of a DD acknowledgment message (default 64).
	AckBytes int
	// PrefetchDepth is the number of disk reads a filter copy keeps in
	// flight (modeling asynchronous I/O and OS readahead): ChargeDisk
	// returns once the read is issued and only blocks when the disk falls
	// `PrefetchDepth` requests behind. 1 makes reads fully synchronous.
	// Default 4.
	PrefetchDepth int
	// UOWs lists the unit-of-work descriptors (one nil UOW if empty).
	UOWs []any
	// ScaleSchedule lists seeded copy-set membership changes applied at
	// work-cycle boundaries (elastic.ScaleStep.BeforeUOW >= 1).
	ScaleSchedule []elastic.ScaleStep
	// Obs attaches the observability subsystem (see internal/obs). Events
	// are stamped in virtual seconds — the kernel's clock, not wall time —
	// so an exported trace shows the simulated timeline. Nil disables.
	Obs *obs.Observer
}

// validate rejects negative option values that would otherwise silently
// fall through to the defaults.
func (o *Options) validate() error {
	if err := exec.CheckOptions("simrt", o.QueueCap, o.BufferBytes); err != nil {
		return err
	}
	if o.AckBytes < 0 {
		return fmt.Errorf("simrt: Options.AckBytes must be >= 0 (0 selects the default of 64), got %d", o.AckBytes)
	}
	if o.PrefetchDepth < 0 {
		return fmt.Errorf("simrt: Options.PrefetchDepth must be >= 0 (0 selects the default of 4), got %d", o.PrefetchDepth)
	}
	return nil
}

// Runner executes a graph on a cluster in virtual time: the copy runtime
// (internal/exec) on the kernel's clock with every copy set local. What
// this package adds is the cost model (simClock): what a transfer, an
// acknowledgment, a computation and a disk read cost on the cluster.
type Runner struct {
	g     *core.Graph
	cl    *cluster.Cluster
	opts  Options
	rt    *exec.Runtime
	clock *simClock
	stats *core.Stats
}

// NewRunner validates the graph/placement (every placed host must exist in
// the cluster) and instantiates filter copies.
func NewRunner(g *core.Graph, pl *core.Placement, cl *cluster.Cluster, opts Options) (*Runner, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(g); err != nil {
		return nil, err
	}
	for _, h := range pl.Hosts() {
		if cl.Host(h) == nil {
			return nil, fmt.Errorf("simrt: placement uses host %q not present in cluster", h)
		}
	}
	if opts.AckBytes == 0 {
		opts.AckBytes = 64
	}
	if opts.PrefetchDepth == 0 {
		opts.PrefetchDepth = 4
	}
	r := &Runner{g: g, cl: cl, opts: opts, stats: core.NewStats(g)}
	r.clock = &simClock{VirtualClock: &exec.VirtualClock{K: cl.Kernel()}, r: r, disk: make(map[*exec.Copy]*prefetch)}
	r.rt = exec.New(exec.Config{
		Engine: "simrt", Clock: r.clock,
		Filters: g.Filters(), Streams: g.Streams(),
		New:      func(name string) (core.Filter, error) { return g.Factory(name)(), nil },
		Policies: exec.PolicyConfig{Default: opts.Policy, PerStream: opts.StreamPolicy},
		QueueCap: opts.QueueCap, BufferBytes: opts.BufferBytes, Obs: opts.Obs,
	})
	if err := r.rt.Place(pl.Entries(g)); err != nil {
		return nil, err
	}
	return r, nil
}

// Instances returns the filter instances for a filter in global copy order.
func (r *Runner) Instances(name string) []core.Filter { return r.rt.Instances(name) }

// Stats returns accumulated statistics (virtual-time seconds).
func (r *Runner) Stats() *core.Stats { return r.stats }

// Run executes all units of work sequentially in virtual time. The kernel
// runs each unit of work to completion in one virtual-time episode, so the
// scale schedule's due steps apply at work-cycle boundaries, exactly as on
// the real engine (exec.Runtime.Run).
func (r *Runner) Run() (*core.Stats, error) {
	// A grown copy set must land on modeled hardware.
	onCluster := func(host string) bool { return r.cl.Host(host) != nil }
	if err := elastic.ValidateSchedule("simrt", r.opts.ScaleSchedule, r.g.Filters(), onCluster); err != nil {
		return r.stats, err
	}
	// This engine's time domain is the kernel's virtual clock: exported
	// traces show simulated seconds, directly comparable to Stats.
	r.opts.Obs.SetClock(r.clock)
	return r.stats, r.rt.Run(r.opts.UOWs, r.opts.ScaleSchedule, r.stats)
}

// simClock is the virtual clock plus this engine's cost model (exec.Cost):
// buffer writes occupy sender and receiver NICs for their wire time,
// demand-driven acknowledgments are real small messages on the same NICs,
// Compute charges the host's processor-sharing CPU and ChargeDisk its disks.
type simClock struct {
	*exec.VirtualClock
	r *Runner
	// disk is each copy's prefetch state for the unit of work in flight
	// (the kernel is cooperative, so a plain map is safe).
	disk map[*exec.Copy]*prefetch
}

// prefetch tracks one copy's in-flight disk reads.
type prefetch struct {
	pending     *sim.Chan[struct{}]
	outstanding int
}

func proc(c *exec.Copy) *sim.Proc { return c.Thread().(*sim.Proc) }

// Transfer occupies the NICs for the buffer's wire time.
func (s *simClock) Transfer(c *exec.Copy, to string, bytes int) {
	s.r.cl.Transfer(proc(c), c.Host(), to, bytes)
}

// Ack sends the acknowledgment as a real small message that occupies
// consumer and producer NICs before the producer's window drops (paper §2:
// the ack indicates the buffer is being processed).
func (s *simClock) Ack(c *exec.Copy, to string, deliver func()) {
	from, ab := c.Host(), s.r.opts.AckBytes
	s.K.Spawn("ack", func(p *sim.Proc) {
		s.r.cl.Transfer(p, from, to, ab)
		deliver()
	})
}

func (s *simClock) Compute(c *exec.Copy, refSeconds float64) {
	if refSeconds <= 0 {
		return
	}
	s.r.cl.Host(c.Host()).CPU.Compute(proc(c), refSeconds)
}

// ChargeDisk issues a disk read with asynchronous prefetch: up to
// Options.PrefetchDepth reads stay in flight while the filter computes,
// modeling the overlapped I/O both real systems rely on. Waiting for a
// slot counts as read-blocked time. All reads drain before the copy
// reaches end-of-work.
func (s *simClock) ChargeDisk(c *exec.Copy, disk int, bytes int) {
	depth := s.r.opts.PrefetchDepth
	host := s.r.cl.Host(c.Host())
	if depth <= 1 {
		host.ReadDisk(proc(c), disk, bytes)
		return
	}
	pf := s.disk[c]
	if pf == nil {
		pf = &prefetch{pending: sim.NewChan[struct{}](s.K, "prefetch@"+c.Host(), depth)}
		s.disk[c] = pf
	}
	pf.await(c, depth-1)
	done := pf.pending
	s.K.Spawn("prefetch-io", func(p *sim.Proc) {
		host.ReadDisk(p, disk, bytes)
		done.Send(p, struct{}{})
	})
	pf.outstanding++
}

// await blocks the copy until at most max of its reads are in flight.
func (pf *prefetch) await(c *exec.Copy, max int) {
	p := proc(c)
	for pf.outstanding > max {
		t0 := p.Now()
		pf.pending.Recv(p)
		pf.outstanding--
		c.AddReadBlocked(float64(p.Now() - t0))
	}
}

// Drain waits for in-flight prefetch reads (end of Process).
func (s *simClock) Drain(c *exec.Copy) {
	if pf := s.disk[c]; pf != nil {
		pf.await(c, 0)
		delete(s.disk, c)
	}
}
