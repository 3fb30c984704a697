package dist

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/exec"
	"datacutter/internal/faults"
	"datacutter/internal/obs"
)

// Worker serves one named host of distributed runs: it builds the filter
// copies placed on its host, executes them, and exchanges stream buffers
// and acknowledgments with peer workers over TCP.
//
// A worker is persistent and multi-tenant: it outlives individual runs and
// serves any number of concurrent sessions, one per job id (Options.JobID,
// carried by the setup frame and by each peer connection's hello). A second
// setup for a job whose session is still active is refused — the pre-job
// single-session behaviour, preserved for plain dist.Run coordinators that
// leave JobID zero.
type Worker struct {
	ln net.Listener
	mu sync.Mutex
	// sessions holds the active session of each job; a session is removed
	// when it ends. The most recently ended one is kept in last — and a
	// bounded per-job map in ended — so Instances/InstancesJob can retrieve
	// sink results after a run returns without the worker accumulating
	// every session it ever served.
	sessions   map[uint64]*session
	last       *session
	ended      map[uint64]*session
	endedOrder []uint64
	// draining refuses new setups while in-flight sessions finish (Drain).
	draining bool
	closed   atomic.Bool

	// obsrv and wm are set by SetObserver before Serve; nil = disabled.
	// wm is atomic because accepted connections resolve it concurrently.
	obsrv *obs.Observer
	wm    atomic.Pointer[workerMetrics]

	// fi is this process's fault injector (SetFaults, before Serve).
	fi *faults.Injector

	// Every live connection (control, inbound peer, outbound peer) is
	// tracked so Kill can sever them all at once, simulating a process
	// crash without actually exiting the test binary.
	connsMu sync.Mutex
	conns   map[*conn]struct{}
	killed  bool
}

// workerMetrics are the worker's live per-frame counters, resolved once so
// the data path never touches the registry lock.
type workerMetrics struct {
	rxDataFrames *obs.Counter
	rxDataBytes  *obs.Counter
	rxAckFrames  *obs.Counter
	txDataFrames *obs.Counter
	txDataBytes  *obs.Counter
	txAckFrames  *obs.Counter
	redials      *obs.Counter // peer-mesh dial retries
	// Batched-writer instrumentation, shared by every outbound connection.
	cm *connMetrics
}

// SetObserver attaches the observability subsystem: per-frame byte and
// acknowledgment counters in the observer's registry, batched-writer flush
// metrics (dist.tx.flushes, dist.tx.frames_per_flush, dist.tx.frame_bytes),
// plus buffer-lifecycle trace events (wall-clock time domain). Must be
// called before Serve.
func (w *Worker) SetObserver(o *obs.Observer) {
	w.obsrv = o
	if reg := o.Registry(); reg != nil {
		w.wm.Store(&workerMetrics{
			rxDataFrames: reg.Counter("dist.rx.data_frames"),
			rxDataBytes:  reg.Counter("dist.rx.data_bytes"),
			rxAckFrames:  reg.Counter("dist.rx.ack_frames"),
			txDataFrames: reg.Counter("dist.tx.data_frames"),
			txDataBytes:  reg.Counter("dist.tx.data_bytes"),
			txAckFrames:  reg.Counter("dist.tx.ack_frames"),
			redials:      reg.Counter("dist.redials"),
			cm: &connMetrics{
				flushes:        reg.Counter("dist.tx.flushes"),
				framesPerFlush: reg.Histogram("dist.tx.frames_per_flush"),
				frameBytes:     reg.Histogram("dist.tx.frame_bytes"),
				writevCalls:    reg.Counter("dist.tx.writev_calls"),
				writevIovecs:   reg.Histogram("dist.tx.writev_iovecs"),
				writevBytes:    reg.Counter("dist.tx.writev_bytes"),
			},
		})
	}
}

// metrics returns the worker's live counters (nil = disabled).
func (w *Worker) metrics() *workerMetrics { return w.wm.Load() }

// connMetrics returns the batched-writer instrumentation for this worker's
// connections (nil when observability is disabled).
func (w *Worker) connMetrics() *connMetrics {
	if m := w.wm.Load(); m != nil {
		return m.cm
	}
	return nil
}

// NewWorker starts a worker listening on addr ("127.0.0.1:0" for an
// ephemeral test port). Call Serve (usually in a goroutine) to accept
// connections.
func NewWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		ln:       ln,
		sessions: make(map[uint64]*session),
		ended:    make(map[uint64]*session),
		conns:    make(map[*conn]struct{}),
	}
	return w, nil
}

// Addr returns the listening address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetFaults attaches a fault injector to every connection this worker opens
// or accepts, and arms kill directives to Kill the worker. Must be called
// before Serve.
func (w *Worker) SetFaults(in *faults.Injector) {
	w.fi = in
	in.OnKill(w.Kill)
}

// track registers a connection for Kill and wires in the fault injector.
func (w *Worker) track(c *conn) *conn {
	c.fi = w.fi
	c.onClose = func() {
		w.connsMu.Lock()
		delete(w.conns, c)
		w.connsMu.Unlock()
	}
	w.connsMu.Lock()
	killed := w.killed
	if !killed {
		w.conns[c] = struct{}{}
	}
	w.connsMu.Unlock()
	if killed {
		c.abort()
	}
	return c
}

// severConns hard-closes every tracked connection. The snapshot is taken
// under connsMu but the aborts run outside it — abort fires onClose, which
// re-takes the lock to prune the map.
func (w *Worker) severConns(markKilled bool) {
	w.connsMu.Lock()
	if markKilled {
		w.killed = true
	}
	cs := make([]*conn, 0, len(w.conns))
	for c := range w.conns {
		cs = append(cs, c)
	}
	w.connsMu.Unlock()
	for _, c := range cs {
		c.abort()
	}
}

// Close stops the listener, severs all connections, and tears down every
// active session.
func (w *Worker) Close() { w.stop(false, "dist: worker closed") }

func (w *Worker) stop(kill bool, why string) {
	w.closed.Store(true)
	w.ln.Close()
	w.severConns(kill)
	for _, s := range w.liveSessions() {
		s.rt.Abort(errors.New(why))
	}
}

// liveSessions snapshots the active sessions.
func (w *Worker) liveSessions() []*session {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*session, 0, len(w.sessions))
	for _, s := range w.sessions {
		out = append(out, s)
	}
	return out
}

// Drain stops accepting new sessions (setups are refused with a draining
// message) and waits up to timeout for the in-flight ones to finish. It
// returns true when the worker went idle — the graceful half of a
// SIGTERM handler; callers typically Close afterwards either way.
func (w *Worker) Drain(timeout time.Duration) bool {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		n := len(w.sessions)
		w.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// dead reports whether the worker was killed or closed.
func (w *Worker) dead() bool {
	w.connsMu.Lock()
	defer w.connsMu.Unlock()
	return w.killed || w.closed.Load()
}

// Kill simulates a process crash: the listener and every live connection
// are hard-closed with no flush and no farewell frames, so peers and the
// coordinator see raw resets/EOFs exactly as they would from a real death.
// The worker accepts no further connections.
func (w *Worker) Kill() { w.stop(true, "dist: worker killed") }

// Serve accepts coordinator and peer connections until Close.
func (w *Worker) Serve() {
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		go w.handle(w.track(newConn(c, w.connMetrics())))
	}
}

// Instances returns the local filter instances for a filter name from the
// active sessions, falling back to the most recently ended one — the
// distributed analogue of Runner.Instances for retrieving results held by
// sink filters. With concurrent jobs in flight, prefer InstancesJob: two
// jobs may reuse a filter name. Results are valid as InstancesJob says.
func (w *Worker) Instances(name string) []core.Filter {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []core.Filter
	for _, job := range w.jobIDsLocked() {
		out = append(out, w.sessions[job].rt.Instances(name)...)
	}
	if len(out) == 0 && w.last != nil {
		out = w.last.rt.Instances(name)
	}
	return out
}

// InstancesJob returns the local filter instances for one job's session —
// the active one, or that job's most recently ended session while it is
// still within the worker's bounded retention window. A result read
// through them is valid until the session leaves retention — a newer
// session of the job replaces it, or endedRetention later jobs end — when
// each instance with a Release method is released: read it as soon as the
// job has ended, or copy it.
func (w *Worker) InstancesJob(job uint64, name string) []core.Filter {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s := w.sessions[job]; s != nil {
		return s.rt.Instances(name)
	}
	if s := w.ended[job]; s != nil {
		return s.rt.Instances(name)
	}
	return nil
}

// endedRetention bounds how many finished sessions a persistent worker keeps
// for post-run result retrieval (InstancesJob): one per job, newest wins,
// oldest evicted beyond the cap — a long-lived worker serving thousands of
// jobs must not accumulate every sink it ever ran.
const endedRetention = 8

// rememberEndedLocked records a finished session for InstancesJob and
// returns the sessions that left retention for it: the job's previous one,
// or the oldest job's beyond the cap. Neither is w.last, which is s.
// Callers hold w.mu.
func (w *Worker) rememberEndedLocked(job uint64, s *session) (retired []*session) {
	if old, seen := w.ended[job]; seen {
		retired = append(retired, old)
	} else {
		w.endedOrder = append(w.endedOrder, job)
		if len(w.endedOrder) > endedRetention {
			retired = append(retired, w.ended[w.endedOrder[0]])
			delete(w.ended, w.endedOrder[0])
			w.endedOrder = w.endedOrder[1:]
		}
	}
	w.ended[job] = s
	return retired
}

// jobIDsLocked returns the active job ids sorted, for deterministic
// iteration; callers hold w.mu.
func (w *Worker) jobIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(w.sessions))
	for id := range w.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// handle dispatches an incoming connection by its first frame: a Setup
// frame makes it the coordinator control connection, a Hello frame a peer
// data connection of the session the hello names.
func (w *Worker) handle(c *conn) {
	f, err := c.recv()
	if err != nil {
		c.close()
		return
	}
	switch f.Kind {
	case kindSetup:
		// A Pool's link serves consecutive sessions. Between them the read
		// has no deadline and skips a stray heartbeat; any frame but a
		// setup closes the link.
		defer c.close()
		for w.runSession(c, f.Setup) {
			f, err = c.recv()
			for err == nil && f.Kind == kindHeartbeat {
				f, err = c.recv()
			}
			if err != nil || f.Kind != kindSetup {
				return
			}
		}
	case kindHello:
		w.mu.Lock()
		s := w.sessions[f.Job]
		w.mu.Unlock()
		if s != nil && s.setup.ID == f.SetupID && s.bind(c) {
			s.servePeer(c)
			return
		}
		c.close() // no live session of that setup round: a stale or stray dialer
	default:
		c.close()
	}
}

// busyMsg is the refusal a worker sends for a Setup of a job whose session
// is active. The coordinator's setup path retries on exactly this message —
// a cancelled run's sessions, or those of another coordinator of the same
// job id, may still be ending.
const busyMsg = "dist: worker busy with another session"

// drainingMsg is the refusal a worker sends for any Setup while draining;
// coordinators fail fast on it (no retry — the worker is going away).
const drainingMsg = "dist: worker draining"

// runSession executes one coordinator-driven session on this worker and
// reports whether it ended confirmed, leaving ctrl fit for another setup.
// Sessions are keyed by job id: a second Setup for the *same* job while
// its session is active is refused rather than silently clobbering the
// running one, while setups for other jobs run concurrently.
//
// The session's units of work run one after another on one goroutine, off
// the control loop so it keeps reading: heartbeats refresh the read
// deadline and an aborting kindShutdown can interrupt a unit blocked on a
// dead peer. One goroutine also orders each unit after the previous one,
// which the network round trip between them does not do for the memory
// model.
func (w *Worker) runSession(ctrl *conn, setup *setupMsg) bool {
	s, err := newSession(w, setup)
	if err != nil {
		_ = ctrl.send(&frame{Kind: kindFail, Err: err.Error()})
		return false
	}
	job := setup.Opts.JobID
	w.mu.Lock()
	switch {
	case w.draining:
		w.mu.Unlock()
		_ = ctrl.send(&frame{Kind: kindFail, Err: drainingMsg})
		return false
	case w.sessions[job] != nil:
		w.mu.Unlock()
		_ = ctrl.send(&frame{Kind: kindFail, Err: busyMsg})
		return false
	}
	w.sessions[job] = s
	w.mu.Unlock()

	opts := &setup.Opts
	// The coordinator is lock-step per worker: at most one request waits.
	units := make(chan *uowMsg, 1)
	var unitWG sync.WaitGroup
	unitWG.Add(1)
	go func() {
		defer unitWG.Done()
		for msg := range units {
			frag, err := s.runUOW(msg)
			reply := &frame{Kind: kindUOWDone, Stats: frag}
			if err != nil {
				if reply = s.failFrame(err); reply == nil {
					continue
				}
			}
			_ = ctrl.send(reply)
		}
	}()
	// endSession's order matters: closing peers first unblocks a unit
	// stuck in a TCP send to a dead host, so the Wait cannot hang; only
	// then are the copies retired and the session unregistered (a new
	// Setup for the job is accepted from that point, while Instances still
	// reads the instances via w.last). The sessions this one pushes out of
	// retention release what they held for it.
	endSession := func() {
		s.closePeers()
		close(units)
		unitWG.Wait()
		s.rt.Close() // retire the copies: a filter that opened a store closes it
		w.mu.Lock()
		if w.sessions[job] == s {
			delete(w.sessions, job)
		}
		w.last = s
		for _, r := range w.rememberEndedLocked(job, s) {
			r.release() // under w.mu: over before a later Instances returns
		}
		w.mu.Unlock()
	}

	if err := ctrl.send(&frame{Kind: kindSetupOK}); err != nil {
		endSession()
		return false
	}

	// Worker->coordinator heartbeats from a dedicated sender, so liveness
	// flows even while a unit of work computes. A wedged (fault-injected)
	// process goes silent, exactly like a frozen real one. It stops before
	// the session's last frame, which nothing may trail on a pooled link.
	hbStop, hbDone := make(chan struct{}), make(chan struct{})
	stopBeats := sync.OnceFunc(func() { close(hbStop); <-hbDone })
	defer stopBeats()
	go func() {
		defer close(hbDone)
		t := time.NewTicker(opts.hbInterval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if w.fi.Wedged() {
					continue
				}
				if ctrl.send(&frame{Kind: kindHeartbeat}) != nil {
					return
				}
			case <-hbStop:
				return
			}
		}
	}()

	for {
		// Silence beyond the miss budget means the coordinator is gone;
		// its heartbeats re-arm the deadline every interval.
		ctrl.setReadDeadline(opts.hbTimeout())
		f, err := ctrl.recv()
		if err != nil {
			s.rt.Abort(fmt.Errorf("dist: coordinator connection lost: %w", err))
			endSession()
			return false
		}
		switch f.Kind {
		case kindHeartbeat:
			// Liveness only; the recv already reset the deadline clock.
		case kindRunUOW:
			units <- f.UOW
		case kindShutdown:
			// The farewell. With Err set it aborts (typically a peer host
			// died): unblock everything and wait the unit out. Confirm only
			// after endSession, so the coordinator knows the job slot is
			// free — a re-setup or a back-to-back Run's Setup would otherwise
			// race the session's end and be refused busy.
			if f.Err != "" {
				s.rt.Abort(fmt.Errorf("dist: run aborted by coordinator: %s", f.Err))
			}
			endSession()
			stopBeats()
			ctrl.setReadDeadline(0)
			return ctrl.send(&frame{Kind: kindShutdownDone}) == nil
		}
	}
}

// ---- Session ----

// session is one job's run on this worker: the copy runtime (internal/exec)
// on the wall clock, holding this host's copies, plus what only this engine
// has — the peer links its remote copy sets are reached through (the
// session is the runtime's exec.Remote), the dispatch of inbound peer
// frames into its inbound port, and failure attribution for recovery.
type session struct {
	w     *Worker
	setup *setupMsg
	rt    *exec.Runtime

	// peers are the outbound data connections this session dialed, by host;
	// inbound are the connections whose hello bound them to it. ended is set
	// when closePeers has closed them all: a late hello binds nothing.
	peersMu sync.Mutex
	peers   map[string]*conn
	inbound []*conn
	ended   bool

	// failHost/failNet attribute the run's failure when it was a transport
	// error talking to a peer: a dead host's cascade, not an application error.
	failMu   sync.Mutex
	failHost string
	failNet  bool
}

// errTooManyStreams refuses a setup whose graph has more streams than a
// peer frame's u16 stream index can name.
var errTooManyStreams = errors.New("dist: graph has more than 65535 streams")

func newSession(w *Worker, setup *setupMsg) (*session, error) {
	if n := len(setup.Graph.Streams); n > 1<<16-1 {
		return nil, fmt.Errorf("%w: %d", errTooManyStreams, n)
	}
	s := &session{w: w, setup: setup, peers: make(map[string]*conn)}
	// The policy names were validated coordinator-side before setup shipped;
	// a name that somehow fails here falls back to Round Robin via the zero
	// config rather than crashing mid-session.
	pol, _ := exec.ParsePolicies(setup.Opts.Policy, setup.Opts.StreamPolicy)
	names := make([]string, len(setup.Graph.Filters))
	for i, fs := range setup.Graph.Filters {
		if _, err := builderFor(fs.Kind); err != nil {
			return nil, err
		}
		names[i] = fs.Name
	}
	s.rt = exec.New(exec.Config{
		Engine: "dist", Clock: exec.Wall(),
		Filters: names, Streams: setup.Graph.Streams,
		New: func(name string) (core.Filter, error) {
			fs := setup.Graph.Filters[slices.Index(names, name)]
			b, err := builderFor(fs.Kind)
			if err != nil {
				return nil, err
			}
			return b(fs.Params)
		},
		Host: setup.Host, Remote: s,
		Policies: pol, QueueCap: setup.Opts.QueueCap, BufferBytes: setup.Opts.BufferBytes,
		Obs: w.obsrv, // pushdown metrics are recorded where the pruning runs
	})
	if err := s.rt.Place(setup.Placement); err != nil {
		return nil, err
	}
	return s, nil
}

// failTransport records a failure caused by the network path to host. Only
// the run's first failure carries attribution: a transport error that
// arrives after an application error is a cascade, not a cause.
func (s *session) failTransport(host string, err error) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.rt.Abort(err) {
		s.failHost, s.failNet = host, true
	}
}

// failFrame builds the kindFail reply for err, attaching the session's
// transport attribution when its first failure implicated a peer host. On
// a killed or closed worker it returns nil — reply nothing: the worker's
// own death severed its links, so the attribution would name a healthy
// peer, and a crashed process is silent anyway; the coordinator learns of
// the death from the severed control connection.
func (s *session) failFrame(err error) *frame {
	if s.w.dead() {
		return nil
	}
	f := &frame{Kind: kindFail, Err: err.Error()}
	s.failMu.Lock()
	if s.failNet {
		f.FailNet = true
		f.FailHost = s.failHost
	}
	s.failMu.Unlock()
	return f
}

// release lets the filters of a session that left retention hand back what
// their results held (an optional Release method, which must not block).
func (s *session) release() {
	for _, fs := range s.setup.Graph.Filters {
		for _, f := range s.rt.Instances(fs.Name) {
			if r, ok := f.(interface{ Release() }); ok {
				r.Release()
			}
		}
	}
}

// closePeers closes every peer connection of the session, outbound and
// inbound: nothing sent on them can concern another session.
func (s *session) closePeers() {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	s.ended = true
	for _, c := range s.peers {
		c.close()
	}
	for _, c := range s.inbound {
		c.close()
	}
}

// bind records an inbound peer connection; false once the session ended.
func (s *session) bind(c *conn) bool {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	if s.ended {
		return false
	}
	s.inbound = append(s.inbound, c)
	return true
}

// servePeer pumps an inbound peer connection's data/ack/producer-done
// frames into the session until the connection closes or a frame names a
// stream the graph does not have. Frames are counted as they come off the
// wire: a frame that arrives after its unit of work ended was still
// received.
func (s *session) servePeer(c *conn) {
	defer c.close()
	for {
		f, err := c.recv()
		if err != nil {
			return
		}
		if m := s.w.metrics(); m != nil {
			switch f.Kind {
			case kindData:
				m.rxDataFrames.Inc()
				m.rxDataBytes.Add(int64(f.Size))
			case kindAck:
				m.rxAckFrames.Inc()
			}
		}
		if f.Stream >= len(s.setup.Graph.Streams) {
			f.release()
			return
		}
		s.dispatchPeer(f)
	}
}

// peer returns (dialing on demand) the outbound data connection to a host.
// The dial goes through dialRetry, the shared backoff+jitter helper bounded
// per attempt by Options.DialTimeout, so a peer mid-restart is retried
// rather than failing the run, and a session being torn down cancels the
// backoff wait. newConn sets TCP_NODELAY: the connection's vectored batch
// writer already coalesces small frames, so Nagle would only delay those
// batches.
func (s *session) peer(host string) (*conn, error) {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	if c, ok := s.peers[host]; ok {
		return c, nil
	}
	addr, ok := s.setup.Addrs[host]
	if !ok {
		return nil, fmt.Errorf("dist: no address for host %q", host)
	}
	var redials *obs.Counter
	if m := s.w.metrics(); m != nil {
		redials = m.redials
	}
	nc, err := dialRetry(addr, &s.setup.Opts, s.w.fi, redials, s.rt.Done())
	if err != nil {
		return nil, fmt.Errorf("dist: dialing peer %s: %w", host, err)
	}
	c := s.w.track(newConn(nc, s.w.connMetrics()))
	if err := c.send(&frame{Kind: kindHello, Job: s.setup.Opts.JobID, SetupID: s.setup.ID}); err != nil {
		c.close()
		return nil, fmt.Errorf("dist: greeting peer %s (%s): %w", host, addr, err)
	}
	s.peers[host] = c
	return c, nil
}

// runUOW runs one unit of work and returns this host's Stats fragment,
// which the coordinator commits once the unit succeeded everywhere.
func (s *session) runUOW(msg *uowMsg) (*core.Stats, error) {
	if msg == nil {
		return nil, errors.New("dist: unit-of-work request without a unit")
	}
	var work any
	if len(msg.Work) > 0 {
		var err error
		work, err = decodeAny(msg.Work)
		if err != nil {
			return nil, fmt.Errorf("dist: decoding unit of work: %w", err)
		}
	}
	return s.rt.RunUOW(msg.Index, work)
}

// ---- exec.Remote: the runtime's way out to copy sets on other hosts ----

// Deliver frames the buffer and sends it on the peer's data connection,
// where blocking is TCP backpressure; the conn encodes the payload outside
// its write lock. Encoding failures — a payload type without a codec, or a
// codec's failing Append — are the producer's: an application error, no
// peer implicated.
func (s *session) Deliver(host string, e exec.Edge, b core.Buffer, ackEvery int) error {
	c, err := s.peer(host)
	if err != nil {
		s.failTransport(host, err)
		return core.ErrCancelled
	}
	f := dataFrame(e, ackEvery, b.Size, b.Payload)
	if fi := s.w.fi; fi != nil {
		act := fi.DataSent(s.streamName(e.Stream))
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if act.Drop {
			return nil // vanished on the wire
		}
		f.dup = act.Dup
	}
	if err := c.send(f); err != nil {
		var pe *payloadError
		if errors.As(err, &pe) {
			pe.stream = s.streamName(e.Stream)
			s.rt.Abort(err)
		} else {
			s.failTransport(host, fmt.Errorf("dist: sending buffer for %s to %s: %w", s.streamName(e.Stream), host, err))
		}
		return core.ErrCancelled
	}
	if m := s.w.metrics(); m != nil {
		m.txDataFrames.Inc()
		m.txDataBytes.Add(int64(b.Size))
	}
	return nil
}

// ProducerDone sends the end-of-work marker on the data connection, so it
// trails the producer's buffers. A consumer host we cannot reach would wait
// for the marker forever; surface the failure instead of hanging the run.
func (s *session) ProducerDone(host string, uow, stream int) {
	c, err := s.peer(host)
	if err == nil {
		err = c.send(&frame{Kind: kindProducerDone, UOWIdx: uow, Stream: stream})
	}
	if err != nil {
		s.failTransport(host, fmt.Errorf("dist: end-of-work for %s undeliverable: %w", s.streamName(stream), err))
	}
}

// Ack sends an acknowledgment frame to the producer's host, best effort.
func (s *session) Ack(host string, e exec.Edge, n int) {
	c, err := s.peer(host)
	if err != nil {
		return
	}
	if m := s.w.metrics(); m != nil {
		m.txAckFrames.Inc()
	}
	_ = c.send(&frame{Kind: kindAck, UOWIdx: e.UOW, Stream: e.Stream, Copy: e.From, Target: e.Target, AckN: n})
}

// streamName names stream index i of the session's graph, for the fault
// injector and error messages.
func (s *session) streamName(i int) string { return s.setup.Graph.Streams[i].Name }

// dispatchPeer hands one inbound peer frame to the runtime's inbound port,
// which drops anything from a stale unit of work.
func (s *session) dispatchPeer(f *frame) {
	switch f.Kind {
	case kindData:
		payload, release, err := decodePayload(f)
		if err != nil {
			s.rt.Abort(fmt.Errorf("dist: decoding buffer on %s: %w", s.streamName(f.Stream), err))
			return
		}
		e := exec.Edge{UOW: f.UOWIdx, Stream: f.Stream, From: f.Copy, Target: f.Target}
		if !s.rt.Inject(e, core.Buffer{Payload: payload, Size: f.Size}, f.AckN, release) && release != nil {
			release()
		}
	case kindAck:
		s.rt.Ack(exec.Edge{UOW: f.UOWIdx, Stream: f.Stream, From: f.Copy, Target: f.Target}, f.AckN)
	case kindProducerDone:
		s.rt.ProducerDone(f.UOWIdx, f.Stream)
	}
}
