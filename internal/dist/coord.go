package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/exec"
	"datacutter/internal/obs"
)

// HostsError attributes a failed run to specific hosts: the workers the
// coordinator declared dead (transport errors, heartbeat silence, peer
// failure attribution on kindFail) or could not dial at setup. Callers that
// manage the worker fleet — internal/jobd's failure scoring — unwrap it
// with errors.As to charge the implicated workers instead of treating every
// failure as an anonymous application error.
type HostsError struct {
	Hosts []string // implicated hosts, sorted
	Err   error
}

func (e *HostsError) Error() string {
	return fmt.Sprintf("%v (hosts implicated: %s)", e.Err, strings.Join(e.Hosts, ","))
}

func (e *HostsError) Unwrap() error { return e.Err }

// setupRefused is a worker's refusal of a setup for an application reason —
// a filter kind not registered, params its builder rejects, a placement it
// cannot run: the spec is at fault, not the host, so no host is charged.
type setupRefused struct{ error }

// attributeHosts wraps err with the implicated hosts when there are any.
func attributeHosts(err error, hosts []string) error {
	if err == nil || len(hosts) == 0 {
		return err
	}
	return &HostsError{Hosts: hosts, Err: err}
}

// Run executes a distributed session: it connects to the worker at each
// host's address, ships the graph spec and placement, sends each unit of
// work to every worker as one request, and aggregates the statistics the
// workers reply with.
//
// Failure model: worker liveness is tracked with control-plane heartbeats
// (Options.HeartbeatInterval / HeartbeatMisses); when a host is declared
// dead the coordinator ends the round with an abort — instead of leaving
// the survivors blocked on dead peer streams — and, when MaxUOWRetries
// allows, re-dispatches the failed unit of work on a placement replanned
// without the dead hosts (legal under the paper's transparent-copy
// semantics: per-UOW filter state is rebuilt by Init). Application errors
// are never retried. Run returns only after every live worker has
// confirmed that its session ended.
func Run(addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any) (*core.Stats, error) {
	return RunObservedCtx(context.Background(), addrs, spec, placement, opts, uows, nil)
}

// RunObserved is Run with coordinator-side observability attached: a
// "coord.uow_seconds" latency histogram, per-stream buffer/byte/ack
// counters updated after each unit of work's stats merge, and the
// failure-model counters (coord.uow_retries, coord.hosts_lost,
// dist.heartbeat_misses, dist.redials), dist.links_reused (setups on a
// Pool's idle links) plus host-down / uow-retry trace events. The observer
// is coordinator-local only — it is never serialized into Options, so
// workers attach their own via Worker.SetObserver. o may be nil
// (disabled).
func RunObserved(addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any, o *obs.Observer) (*core.Stats, error) {
	return RunObservedCtx(context.Background(), addrs, spec, placement, opts, uows, o)
}

// RunObservedCtx is RunObserved with a context: cancellation (or a
// deadline) interrupts the run between and during units of work — the
// coordinator stops waiting on workers, aborts their sessions without
// awaiting the confirmations, and returns an error wrapping ctx.Err(). The
// job service runs its jobs this way, through its Pool, for job deadlines
// and DELETE /jobs/{id}.
func RunObservedCtx(ctx context.Context, addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any, o *obs.Observer) (*core.Stats, error) {
	return (*Pool)(nil).Run(ctx, addrs, spec, placement, opts, uows, o)
}

// Run is RunObservedCtx on control links borrowed from the pool where it
// has them; each round that ends cleanly hands its links back. On a nil
// pool it dials every worker, as RunObservedCtx does.
func (p *Pool) Run(ctx context.Context, addrs map[string]string, spec GraphSpec, placement []PlacementEntry, opts Options, uows []any, o *obs.Observer) (*core.Stats, error) {
	if len(uows) == 0 {
		uows = []any{nil}
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	for _, e := range placement {
		if _, ok := addrs[e.Host]; !ok {
			return nil, fmt.Errorf("dist: placement host %q has no worker address", e.Host)
		}
	}
	names := make([]string, len(spec.Filters))
	for i, f := range spec.Filters {
		names[i] = f.Name
	}
	hasWorker := func(host string) bool { _, ok := addrs[host]; return ok }
	if err := elastic.ValidateSchedule("dist", opts.ScaleSchedule, names, hasWorker); err != nil {
		return nil, err
	}

	if ctx == nil {
		ctx = context.Background()
	}
	co := &coordinator{
		ctx:       ctx,
		pool:      p,
		spec:      spec,
		opts:      opts,
		o:         o,
		addrs:     make(map[string]string, len(addrs)),
		placement: placement,
		links:     make(map[string]*hostLink, len(addrs)),
		stats:     exec.NewStats(names, spec.Streams),
	}
	for h, a := range addrs {
		co.addrs[h] = a
	}
	if reg := o.Registry(); reg != nil {
		co.m.uowH = reg.Histogram("coord.uow_seconds")
		co.m.retries = reg.Counter("coord.uow_retries")
		co.m.hostsLost = reg.Counter("coord.hosts_lost")
		co.m.hbMisses = reg.Counter("dist.heartbeat_misses")
		co.m.redials = reg.Counter("dist.redials")
		co.m.reused = reg.Counter("dist.links_reused")
	}
	// Every exit ends the round; after a success the links are already
	// gone and this is a no-op. Otherwise the abort releases in-flight
	// workers instead of leaving them to a TCP reset or a blocked peer stream.
	defer co.end("coordinator aborted the run")

	if err := co.connectAll(); err != nil {
		return co.stats, err
	}

	start := time.Now()
	for i, work := range uows {
		if due := elastic.StepsAt(opts.ScaleSchedule, i); len(due) > 0 {
			if err := co.rescaleSessions(due, i); err != nil {
				return co.stats, err
			}
		}
		for attempt := 0; ; attempt++ {
			if cerr := ctx.Err(); cerr != nil {
				return co.stats, fmt.Errorf("dist: run cancelled: %w", cerr)
			}
			t0 := time.Now()
			err := co.runUOW(i, work)
			if err == nil {
				d := time.Since(t0).Seconds()
				co.stats.PerUOWSeconds = append(co.stats.PerUOWSeconds, d)
				co.m.uowH.Observe(d)
				publishCoordGauges(co.o, co.stats)
				break
			}
			dead := co.deadHosts()
			if ctx.Err() != nil || len(dead) == 0 || attempt >= co.opts.MaxUOWRetries {
				return co.stats, attributeHosts(err, dead)
			}
			if rerr := co.recover(dead); rerr != nil {
				return co.stats, attributeHosts(
					fmt.Errorf("dist: recovering from %q failed: %w", err, rerr), dead)
			}
			co.m.retries.Inc()
			co.o.Emit(obs.Event{Kind: obs.KindUOWRetry, UOW: i, N: attempt + 1,
				Note: "hosts lost: " + strings.Join(dead, ",")})
		}
	}
	co.stats.WallSeconds = time.Since(start).Seconds()

	co.end("")
	return co.stats, nil
}

// coordMetrics are the coordinator's resolved metric handles (nil-safe).
type coordMetrics struct {
	uowH      *obs.Histogram
	retries   *obs.Counter // coord.uow_retries
	hostsLost *obs.Counter // coord.hosts_lost
	hbMisses  *obs.Counter // dist.heartbeat_misses
	redials   *obs.Counter // dist.redials
	reused    *obs.Counter // dist.links_reused
}

// coordinator drives one distributed run. addrs and placement shrink as
// hosts die and units of work are replanned onto the survivors.
type coordinator struct {
	// ctx cancels the run: waits on workers and dial backoffs stop, and the
	// round ends without awaiting confirmations. Never nil.
	ctx       context.Context
	pool      *Pool // lends and takes back control links; nil dials per round
	spec      GraphSpec
	opts      Options
	o         *obs.Observer
	addrs     map[string]string
	placement []PlacementEntry
	links     map[string]*hostLink
	stats     *core.Stats // committed fragments of the units that succeeded
	m         coordMetrics
}

// connectAll sets up every host in co.addrs concurrently, populating
// co.links. It is one setup round: its sessions share one random nonzero
// setup id, which their peer connections' hellos present, so no connection
// of an earlier round — an aborted attempt, a rescale, another coordinator
// of the same job id — can reach them. Every host whose dial or setup
// failed is attributed — unless the run's context was cancelled, which is
// the caller's doing, not the workers', or a worker refused the spec, which
// is the application's. The hosts that did set up stay in co.links, for the
// round's end to release.
func (co *coordinator) connectAll() error {
	id := rand.Uint64N(math.MaxUint64) + 1
	hosts := co.hostNames()
	links := make([]*hostLink, len(hosts))
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, host := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			links[i], errs[i] = co.connectHost(host, co.addrs[host], id)
		}()
	}
	wg.Wait()
	var failed []string
	refused := false
	for i, host := range hosts {
		switch {
		case errs[i] == nil:
			co.links[host] = links[i]
		case errors.As(errs[i], new(setupRefused)):
			refused = true
		default:
			failed = append(failed, host)
		}
	}
	err := errors.Join(errs...)
	if err == nil || refused || co.ctx.Err() != nil {
		return err
	}
	return attributeHosts(err, failed)
}

// hostNames returns the current hosts sorted, for deterministic dial and
// gather order.
func (co *coordinator) hostNames() []string {
	names := make([]string, 0, len(co.addrs))
	for h := range co.addrs {
		names = append(names, h)
	}
	sort.Strings(names)
	return names
}

// connectHost completes the Setup handshake with one worker, on a link
// borrowed from the pool or a fresh dial (with backoff via dialRetry). A
// borrowed link the worker hung up on — it restarted, or was closed — is
// not the worker's failure: the host's idle links are dropped and it is
// dialed afresh. A setup timeout is, on either kind of link. A "worker
// busy" refusal is retried briefly: after a cancelled run, whose round ends
// unconfirmed, the next setup can race the old session's last breath. Any
// refusal but "busy" and "draining" is the spec's fault: a setupRefused.
func (co *coordinator) connectHost(host, addr string, setupID uint64) (*hostLink, error) {
	busyDeadline := time.Now().Add(co.opts.hbTimeout() + 2*time.Second)
	backoff := 10 * time.Millisecond
	for {
		c := co.pool.get(addr)
		pooled := c != nil
		if !pooled {
			nc, err := dialRetry(addr, &co.opts, co.opts.faults, co.m.redials, co.ctx.Done())
			if err != nil {
				return nil, fmt.Errorf("dist: dialing worker %s: %w", host, err)
			}
			c = newConn(nc, nil)
		}
		var f *frame
		err := c.send(&frame{Kind: kindSetup, Setup: &setupMsg{
			ID: setupID, Graph: co.spec, Placement: co.placement, Opts: co.opts,
			Addrs: co.addrs, Host: host,
		}})
		if err == nil {
			c.setReadDeadline(co.opts.hbTimeout() + 2*time.Second)
			f, err = c.recv()
			c.setReadDeadline(0)
		}
		var ne net.Error
		switch {
		case err != nil && pooled && !(errors.As(err, &ne) && ne.Timeout()):
			c.close()
			co.pool.Drop(addr)
		case err != nil:
			c.close()
			return nil, fmt.Errorf("dist: worker %s setup: %w", host, err)
		case f.Kind == kindFail && f.Err == busyMsg && time.Now().Before(busyDeadline):
			c.close()
			select {
			case <-time.After(backoff):
			case <-co.ctx.Done():
				return nil, fmt.Errorf("dist: worker %s setup cancelled: %w", host, co.ctx.Err())
			}
			if backoff *= 2; backoff > 200*time.Millisecond {
				backoff = 200 * time.Millisecond
			}
		case f.Kind == kindFail && (f.Err == busyMsg || f.Err == drainingMsg):
			c.close()
			return nil, fmt.Errorf("dist: worker %s: %s", host, f.Err)
		case f.Kind == kindFail:
			c.close()
			return nil, setupRefused{fmt.Errorf("dist: worker %s: %s", host, f.Err)}
		case f.Kind != kindSetupOK:
			c.close()
			return nil, fmt.Errorf("dist: worker %s: unexpected setup reply %d", host, f.Kind)
		default:
			if pooled {
				co.m.reused.Inc()
			}
			return newHostLink(host, c, co.opts.hbInterval()), nil
		}
	}
}

// waitReply blocks for the next protocol reply from l, sweeping liveness
// across every live link each heartbeat interval. The sweep is what makes
// detection independent of gather order: when a third host dies while the
// coordinator waits on a healthy one, the healthy host may be blocked
// forever on the dead host's streams (demand-driven writers stop picking a
// dead copy set, so no surviving socket ever errors) — the dead host's
// buffered reader error or heartbeat silence is the only signal. On error
// the casualty — l itself or another host — has been marked dead and a
// host-down event emitted; callers inspect l.dead to tell which.
func (co *coordinator) waitReply(l *hostLink) (*frame, error) {
	// Prefer a buffered reply over a buffered error: the reader may have
	// delivered the reply and then seen the connection close.
	select {
	case f := <-l.reply:
		return f, nil
	default:
	}
	interval := co.opts.hbInterval()
	limit := co.opts.hbMisses()
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case f := <-l.reply:
			return f, nil
		case err := <-l.errc:
			co.markDead(l, err)
			return nil, fmt.Errorf("dist: worker %s: %w", l.host, err)
		case <-co.ctx.Done():
			// Cancellation, not a casualty: no host is marked dead; the
			// round's end aborts every worker session.
			return nil, fmt.Errorf("dist: run cancelled: %w", co.ctx.Err())
		case <-t.C:
			if err := co.sweepLiveness(interval, limit); err != nil {
				return nil, err
			}
			t.Reset(interval)
		}
	}
}

// sweepLiveness checks every live link once: a buffered reader error, or a
// full miss budget of heartbeat-interval silences (counted per host in
// hostLink.misses so the tally survives gather moving between hosts),
// declares that host dead. A link whose session is over is not checked.
func (co *coordinator) sweepLiveness(interval time.Duration, limit int) error {
	for _, host := range co.hostNames() {
		l := co.links[host]
		if l == nil || l.dead || l.over.Load() {
			continue
		}
		select {
		case err := <-l.errc:
			co.markDead(l, err)
			return fmt.Errorf("dist: worker %s: %w", host, err)
		default:
		}
		if time.Duration(time.Now().UnixNano()-l.lastBeat.Load()) >= interval {
			l.misses++
			co.m.hbMisses.Inc()
			if l.misses >= limit {
				err := fmt.Errorf("dist: worker %s silent for %d heartbeat intervals", host, l.misses)
				co.markDead(l, err)
				return err
			}
		} else {
			l.misses = 0
		}
	}
	return nil
}

// markDead records the coordinator's verdict on one host and emits the
// host-down trace event.
func (co *coordinator) markDead(l *hostLink, err error) {
	l.dead = true
	co.o.Emit(obs.Event{Kind: obs.KindHostDown, Host: l.host, Note: err.Error()})
}

// broadcast sends f to every link; the first send error marks that host
// dead and aborts the broadcast (its conn error is sticky anyway).
func (co *coordinator) broadcast(f *frame) error {
	for _, host := range co.hostNames() {
		l := co.links[host]
		if err := l.c.send(f); err != nil {
			co.markDead(l, err)
			return fmt.Errorf("dist: worker %s unreachable: %w", host, err)
		}
	}
	return nil
}

// gather awaits one unit-of-work reply per host and returns the hosts'
// Stats fragments. A transport failure or heartbeat timeout marks the host
// dead and returns immediately — the remaining hosts may be blocked on the
// dead host's streams, so waiting on them in sequence could deadlock the
// coordinator; recovery aborts them instead. A kindFail reply either
// implicates a peer host (FailNet) or is an application error.
func (co *coordinator) gather() ([]*core.Stats, error) {
	var frags []*core.Stats
	for _, host := range co.hostNames() {
		l := co.links[host]
		f, err := co.waitReply(l)
		if err != nil {
			// waitReply already marked the casualty dead — l itself, or
			// another host whose death strands the gather.
			return nil, fmt.Errorf("dist: unit of work: %w", err)
		}
		if f.Kind == kindFail {
			if f.FailNet {
				if tl := co.links[f.FailHost]; tl != nil && f.FailHost != host {
					co.markDead(tl, fmt.Errorf("%s", f.Err))
				}
				return nil, fmt.Errorf("dist: worker %s unit of work: %s", host, f.Err)
			}
			return nil, fmt.Errorf("dist: worker %s: %s", host, f.Err)
		}
		frags = append(frags, f.Stats)
	}
	return frags, nil
}

// runUOW runs one unit of work: one request to every host, then one reply
// from each. The fragments are committed only once the whole unit of work
// succeeded — a retried unit must not double-count a failed attempt's
// traffic.
func (co *coordinator) runUOW(idx int, work any) error {
	var raw []byte
	if r, ok := work.(RawUOW); ok {
		// Pre-encoded descriptor (a job-server relay): pass through
		// verbatim — the coordinator process need not know the type.
		raw = r
	} else if work != nil {
		var err error
		raw, err = encodeAny(work)
		if err != nil {
			return fmt.Errorf("dist: encoding unit of work: %w", err)
		}
	}
	if err := co.broadcast(&frame{Kind: kindRunUOW, UOW: &uowMsg{Index: idx, Work: raw}}); err != nil {
		return err
	}
	frags, err := co.gather()
	if err != nil {
		return err
	}
	for _, frag := range frags {
		co.stats.Merge(frag)
	}
	return nil
}

// deadHosts lists the hosts marked dead, sorted.
func (co *coordinator) deadHosts() []string {
	var out []string
	for host, l := range co.links {
		if l.dead {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// end closes the current round of worker sessions; it is the one way a
// round ends — after the last unit of work, before a rescale or a recovery,
// and on every other exit of Run. It sends every live link one
// kindShutdown, an abort when why is non-empty, and awaits each one's
// kindShutdownDone, discarding unit-of-work replies already in flight:
// the worker confirms only once its session is unregistered, so the next
// round's setup finds the job slot free. The liveness sweep bounds the
// wait, and a cancelled run stops it. Then dead links are severed; a link
// whose plain kindShutdown was confirmed goes back to the pool, which
// closes it when there is none; every other live link is closed. The
// hosts dead at the end of the round are returned, sorted. With no links
// it is a no-op.
func (co *coordinator) end(why string) (lost []string) {
	bye := &frame{Kind: kindShutdown, Err: why}
	for _, l := range co.links {
		if !l.dead {
			if err := l.c.send(bye); err != nil {
				co.markDead(l, err)
			}
		}
	}
	for _, host := range co.hostNames() {
		l := co.links[host]
		for l != nil && !l.dead && co.ctx.Err() == nil {
			// An error marked l or another host dead, or the run was
			// cancelled; only l's verdict, its confirmation or the
			// cancellation ends this wait.
			if f, err := co.waitReply(l); err == nil && f.Kind == kindShutdownDone {
				break
			}
		}
	}
	lost = co.deadHosts()
	reuse := why == "" && co.ctx.Err() == nil
	for host, l := range co.links {
		switch {
		case l.dead:
			l.sever()
		case reuse && l.over.Load():
			l.stopOnce.Do(func() { close(l.stop) })
			co.pool.put(co.addrs[host], l.c)
		default:
			l.shutdown()
		}
	}
	co.links = map[string]*hostLink{}
	return lost
}

// recover moves the run past the hosts in dead: it ends the round, counts
// every host dead at its end (a survivor can die while the round ends),
// replans the placement onto the rest and sets up fresh sessions. The
// caller then re-dispatches the failed unit of work.
func (co *coordinator) recover(dead []string) error {
	lost := co.end("host(s) lost: " + strings.Join(dead, ","))
	if err := co.ctx.Err(); err != nil {
		return fmt.Errorf("dist: recovery cancelled: %w", err)
	}
	co.m.hostsLost.Add(int64(len(lost)))
	deadSet := make(map[string]bool, len(lost))
	for _, host := range lost {
		deadSet[host] = true
		delete(co.addrs, host)
	}
	if len(co.addrs) == 0 {
		return fmt.Errorf("dist: no surviving hosts")
	}
	replanned, err := elastic.ReplanDead(co.placement, deadSet)
	if err != nil {
		return err
	}
	co.placement = replanned
	return co.connectAll()
}

// publishCoordGauges reflects the running aggregate stream totals into the
// coordinator's registry after each unit of work.
func publishCoordGauges(o *obs.Observer, st *core.Stats) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	for name, ss := range st.Streams {
		reg.Gauge("coord.stream." + name + ".buffers").Set(ss.Buffers)
		reg.Gauge("coord.stream." + name + ".bytes").Set(ss.Bytes)
		reg.Gauge("coord.stream." + name + ".acks").Set(ss.Acks)
	}
}
