// Package jobd is the persistent multi-tenant job service over a shared
// dist worker mesh: a long-lived server accepts many concurrent pipeline
// submissions, multiplexes them onto persistent dcworker processes (each
// job's session is namespaced by the job id its connections carry), and
// survives its own restarts through a write-ahead job journal.
//
// The server is the coordinator for every job it runs: a submitted JobSpec
// carries the serializable pieces of a dist run (graph, placement, options,
// pre-encoded units of work), admission control enforces per-tenant quotas
// on queue depth, queued bytes, and concurrency, and a FIFO dispatcher
// starts jobs as quota and worker health allow. Unit-of-work descriptors
// travel as dist.RawUOW, so the server never needs the submitting
// application's Go types registered — only the workers do.
package jobd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/elastic"
	"datacutter/internal/obs"
)

// Quota bounds one tenant's use of the service. Zero fields are unlimited.
type Quota struct {
	MaxRunning     int   // concurrent running jobs
	MaxQueued      int   // jobs waiting in the queue
	MaxQueuedBytes int64 // total encoded bytes (UOWs + filter params) queued
	// MaxCopies caps the peak number of transparent filter copies one job
	// may place at any work-cycle boundary — the initial placement and every
	// point of its elastic scale schedule (Options.ScaleSchedule). A job may
	// scale up and down within this budget, never beyond it.
	MaxCopies int
}

// Config configures a Server. Zero values select the defaults noted.
type Config struct {
	// MaxRunning caps concurrently running jobs across all tenants (4).
	MaxRunning int
	// DefaultQuota applies to tenants not listed in Quotas.
	DefaultQuota Quota
	// Quotas overrides the default per tenant name.
	Quotas map[string]Quota
	// JournalPath enables the write-ahead job journal (JSONL). Empty
	// disables persistence; a restarted server then starts empty.
	JournalPath string
	// ProbeInterval is the worker health-probe period (2s).
	ProbeInterval time.Duration
	// Registry receives the server's metrics (a fresh one when nil).
	Registry *obs.Registry

	// Resilience knobs (DESIGN.md §15). Zero selects the noted default.

	// DefaultMaxRetries is the retry budget for jobs whose spec leaves
	// MaxRetries at 0 (default 0: no automatic retries).
	DefaultMaxRetries int
	// RetryBackoff is the base of the exponential retry backoff (500ms);
	// attempt n waits ~base*2^(n-1) with ±25% jitter, capped at
	// RetryBackoffMax (30s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// QuarantineStrikes is how many attributed failures a worker absorbs
	// before it is quarantined (3).
	QuarantineStrikes int
	// Probation is how long a quarantined worker sits out before the
	// prober attempts one half-open reinstatement probe (30s).
	Probation time.Duration
	// MaxQueueAge sheds a tenant's new submissions while its oldest queued
	// job has waited longer than this (0 disables age shedding).
	MaxQueueAge time.Duration
	// MaxQueueDepth sheds submissions when the global queue holds this
	// many jobs (0 = unlimited).
	MaxQueueDepth int
	// ShedRetryAfter is the Retry-After hint attached to shed responses (5s).
	ShedRetryAfter time.Duration
	// JournalCompactBytes triggers journal compaction once the log exceeds
	// this size (4 MiB); compaction also always runs on startup recovery.
	JournalCompactBytes int64
}

func (c Config) maxRunning() int {
	if c.MaxRunning > 0 {
		return c.MaxRunning
	}
	return 4
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 2 * time.Second
}

func (c Config) quotaFor(tenant string) Quota {
	if q, ok := c.Quotas[tenant]; ok {
		return q
	}
	return c.DefaultQuota
}

// JobSpec is one submitted pipeline: everything the server needs to run it
// as a dist coordinator. All fields are JSON-serializable — the spec is
// journaled verbatim and travels over the HTTP API.
type JobSpec struct {
	Name      string                `json:"name,omitempty"`
	Tenant    string                `json:"tenant,omitempty"`
	Graph     dist.GraphSpec        `json:"graph"`
	Placement []dist.PlacementEntry `json:"placement"`
	Options   dist.Options          `json:"options"`
	// UOWs are pre-encoded unit-of-work descriptors (dist.EncodeUOW);
	// empty runs a single nil unit of work.
	UOWs []dist.RawUOW `json:"uows,omitempty"`
	// MaxRetries is the job's retry budget: a failed run re-queues with
	// exponential backoff up to this many times. 0 adopts the server
	// default (Config.DefaultMaxRetries); -1 disables retries explicitly.
	MaxRetries int `json:"max_retries,omitempty"`
	// Deadline is the job's time-to-live measured from submission. Once it
	// passes, a queued job fails without running and a running job's dist
	// session is cancelled (context deadline → abort protocol). 0 = none.
	Deadline time.Duration `json:"deadline,omitempty"`
}

// bytes is the admission-control size of the spec: encoded work plus
// filter params — the parts that scale with submission size.
func (sp *JobSpec) bytes() int64 {
	n := int64(0)
	for _, u := range sp.UOWs {
		n += int64(len(u))
	}
	for _, f := range sp.Graph.Filters {
		n += int64(len(f.Params))
	}
	return n
}

// peakCopies is the largest total number of transparent copies the job's
// placement reaches at any work-cycle boundary: the base placement, plus
// the effective placement after each elastic scale step the spec's
// Options.ScaleSchedule carries. Quota.MaxCopies bounds this peak.
func (sp *JobSpec) peakCopies() int {
	base := make([]elastic.Entry, 0, len(sp.Placement))
	for _, p := range sp.Placement {
		base = append(base, elastic.Entry{Filter: p.Filter, Host: p.Host, Copies: p.Copies})
	}
	peak := totalCopies(base)
	for _, st := range sp.Options.ScaleSchedule {
		eff := elastic.EffectivePlacement(base, sp.Options.ScaleSchedule, st.BeforeUOW)
		if n := totalCopies(eff); n > peak {
			peak = n
		}
	}
	return peak
}

func totalCopies(entries []elastic.Entry) int {
	n := 0
	for _, e := range entries {
		n += e.Copies
	}
	return n
}

// hosts returns the distinct placement hosts, sorted.
func (sp *JobSpec) hosts() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range sp.Placement {
		if !seen[p.Host] {
			seen[p.Host] = true
			out = append(out, p.Host)
		}
	}
	sort.Strings(out)
	return out
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateBackoff   State = "backoff" // failed attempt, waiting in queue for its retry time
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final (done, failed, cancelled).
func (st State) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// Event is one timestamped line of a job's history.
type Event struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// Job is an API snapshot of one job.
type Job struct {
	ID        uint64      `json:"id"`
	Spec      JobSpec     `json:"spec"`
	State     State       `json:"state"`
	Err       string      `json:"err,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   time.Time   `json:"started"`
	Finished  time.Time   `json:"finished"`
	Stats     *core.Stats `json:"stats,omitempty"`
	// Attempts counts failed runs so far; a job in "backoff" retries no
	// earlier than NotBefore.
	Attempts  int       `json:"attempts,omitempty"`
	NotBefore time.Time `json:"not_before"`
	// Deadline is the absolute time the job's TTL expires (zero = none).
	Deadline time.Time `json:"deadline"`
}

// job is the server's mutable record; guarded by Server.mu.
type job struct {
	id        uint64
	spec      JobSpec
	state     State
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	stats     *core.Stats
	events    []Event
	// reg collects the job's coordinator-side metrics, isolated per job.
	reg *obs.Registry

	// Resilience state.
	attempts  int                // failed runs so far
	notBefore time.Time          // earliest next dispatch (backoff schedule)
	queuedAt  time.Time          // when the job (re-)entered the queue, for age shedding
	deadline  time.Time          // absolute TTL (zero = none)
	cancelReq bool               // Cancel was requested
	cancel    context.CancelFunc // cancels the running dist session (nil unless running)
	done      chan struct{}      // closed on transition to a terminal state
}

func (j *job) snapshot() Job {
	return Job{
		ID: j.id, Spec: j.spec, State: j.state, Err: j.err,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Stats: j.stats, Attempts: j.attempts, NotBefore: j.notBefore,
		Deadline: j.deadline,
	}
}

// WorkerInfo is one registered persistent worker.
type WorkerInfo struct {
	Host string `json:"host"`
	// Addr is the worker's dist (TCP) listen address.
	Addr string `json:"addr"`
	// Health is the worker's obs debug address; its /healthz endpoint is
	// the liveness probe. Empty falls back to probing Addr with a TCP dial.
	Health     string    `json:"health,omitempty"`
	Healthy    bool      `json:"healthy"`
	Registered time.Time `json:"registered"`
	LastProbe  time.Time `json:"last_probe"`

	// Failure scoring (circuit breaker). Strikes accumulate from failed
	// runs attributed to this worker (dist.HostsError); at
	// Config.QuarantineStrikes the worker is quarantined — no dispatches —
	// until its probation elapses and a half-open probe succeeds, which
	// resets the record. A successful run also clears strikes. The record
	// survives re-registration: a flaky worker cannot launder its history
	// by re-announcing itself.
	Strikes     int       `json:"strikes,omitempty"`
	Quarantined bool      `json:"quarantined,omitempty"`
	ProbationAt time.Time `json:"probation_at"` // earliest half-open probe
}

// serverMetrics are the server's resolved metric handles.
type serverMetrics struct {
	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	depth     *obs.Gauge
	running   *obs.Gauge
	healthy   *obs.Gauge

	retried      *obs.Counter   // jobd.jobs_retried: failed runs re-queued with backoff
	cancelled    *obs.Counter   // jobd.jobs_cancelled
	deadlined    *obs.Counter   // jobd.jobs_deadline_exceeded
	shed         *obs.Counter   // jobd.jobs_shed: submissions rejected by load shedding
	quarantined  *obs.Counter   // jobd.workers_quarantined: quarantine events
	reinstated   *obs.Counter   // jobd.workers_reinstated: half-open probes that closed the breaker
	inQuarantine *obs.Gauge     // jobd.workers_in_quarantine
	queueAge     *obs.Histogram // jobd.queue_age_seconds: queue wait, observed at dispatch
}

// Server is the job service. Create with NewServer, stop with Drain
// followed by Close.
type Server struct {
	cfg Config
	reg *obs.Registry
	m   serverMetrics
	jnl *journal
	// pool holds the idle control links of the jobs' cleanly ended setup
	// rounds, so a job sets up on its workers without dialing them. A
	// worker's idle links are dropped when it is quarantined, fails a
	// probe or re-registers at another address.
	pool *dist.Pool

	mu        sync.Mutex
	jobs      map[uint64]*job
	queue     []uint64 // FIFO of queued job ids
	nextID    uint64
	running   int
	tenantRun map[string]int
	workers   map[string]*WorkerInfo
	draining  bool

	wake     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	// loops tracks the dispatcher and prober; jobsWG the running jobs.
	loops  sync.WaitGroup
	jobsWG sync.WaitGroup
}

// NewServer builds the service, replays the journal (re-queueing every job
// the previous process never finished), and starts the dispatcher and the
// worker health prober.
func NewServer(cfg Config) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		jobs:      make(map[uint64]*job),
		tenantRun: make(map[string]int),
		workers:   make(map[string]*WorkerInfo),
		nextID:    1,
		wake:      make(chan struct{}, 1),
		stopped:   make(chan struct{}),
		pool:      dist.NewPool(),
	}
	s.m = serverMetrics{
		submitted: reg.Counter("jobd.jobs_submitted"),
		rejected:  reg.Counter("jobd.jobs_rejected"),
		completed: reg.Counter("jobd.jobs_completed"),
		failed:    reg.Counter("jobd.jobs_failed"),
		depth:     reg.Gauge("jobd.queue_depth"),
		running:   reg.Gauge("jobd.jobs_running"),
		healthy:   reg.Gauge("jobd.workers_healthy"),

		retried:      reg.Counter("jobd.jobs_retried"),
		cancelled:    reg.Counter("jobd.jobs_cancelled"),
		deadlined:    reg.Counter("jobd.jobs_deadline_exceeded"),
		shed:         reg.Counter("jobd.jobs_shed"),
		quarantined:  reg.Counter("jobd.workers_quarantined"),
		reinstated:   reg.Counter("jobd.workers_reinstated"),
		inQuarantine: reg.Gauge("jobd.workers_in_quarantine"),
		queueAge:     reg.Histogram("jobd.queue_age_seconds"),
	}
	if cfg.JournalPath != "" {
		jnl, replay, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.jnl = jnl
		now := time.Now()
		for _, r := range replay {
			j := &job{
				id: r.ID, spec: r.Spec, state: StateQueued,
				submitted: r.Submitted, queuedAt: now,
				attempts: r.Attempts, notBefore: r.NotBefore,
				reg: obs.NewRegistry(), done: make(chan struct{}),
			}
			if r.Spec.Deadline > 0 {
				j.deadline = r.Submitted.Add(r.Spec.Deadline)
			}
			j.events = append(j.events, Event{Time: r.Submitted, Msg: "submitted"})
			switch {
			case r.Attempts > 0:
				// Resume the journaled backoff schedule rather than losing
				// the attempt count or double-running the backoff.
				j.state = StateBackoff
				j.events = append(j.events, Event{Time: now, Msg: fmt.Sprintf(
					"re-queued after server restart (resuming retry %d, not before %s)",
					r.Attempts, r.NotBefore.Format(time.RFC3339))})
			case r.Started:
				j.events = append(j.events, Event{Time: now, Msg: "re-queued after server restart (was in flight)"})
			default:
				j.events = append(j.events, Event{Time: now, Msg: "re-queued after server restart"})
			}
			s.jobs[r.ID] = j
			s.queue = append(s.queue, r.ID)
			if r.ID >= s.nextID {
				s.nextID = r.ID + 1
			}
		}
		s.m.depth.Set(int64(len(s.queue)))
		// Startup recovery is the natural compaction point: everything the
		// replay discarded (finished jobs, superseded retry records) would
		// otherwise re-accumulate across every restart.
		s.compactJournalLocked()
	}
	s.loops.Add(2)
	go s.dispatch()
	go s.probe()
	return s, nil
}

// Errors the admission path returns; the HTTP layer maps them to statuses.
var (
	ErrDraining = fmt.Errorf("jobd: server is draining")
	ErrQuota    = fmt.Errorf("jobd: tenant quota exceeded")
	ErrInvalid  = fmt.Errorf("jobd: invalid job spec")
	// ErrOverload is load shedding: the queue is too deep or the tenant's
	// backlog too old for new work to finish in reasonable time. The HTTP
	// layer maps it to 503 with a Retry-After header so clients back off.
	ErrOverload = fmt.Errorf("jobd: overloaded")
	// ErrTerminal rejects cancelling a job that already finished.
	ErrTerminal = fmt.Errorf("jobd: job already in a terminal state")
)

// Submit runs admission control, journals the job, and queues it. The
// returned id is the job's identity everywhere: the API, the journal, and
// the JobID its sessions' setup frames and peer hellos carry.
func (s *Server) Submit(spec JobSpec) (uint64, error) {
	if len(spec.Graph.Filters) == 0 || len(spec.Placement) == 0 {
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: graph and placement must be non-empty", ErrInvalid)
	}
	if spec.MaxRetries < -1 {
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: MaxRetries must be >= -1, got %d", ErrInvalid, spec.MaxRetries)
	}
	if spec.Deadline < 0 {
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: Deadline must be >= 0, got %v", ErrInvalid, spec.Deadline)
	}
	if err := spec.Options.Validate(); err != nil {
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	size := spec.bytes()
	q := s.cfg.quotaFor(spec.Tenant)
	if q.MaxCopies > 0 {
		if peak := spec.peakCopies(); peak > q.MaxCopies {
			s.m.rejected.Inc()
			return 0, fmt.Errorf("%w: tenant %q job peaks at %d transparent copies (max %d)",
				ErrQuota, spec.Tenant, peak, q.MaxCopies)
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.rejected.Inc()
		return 0, ErrDraining
	}
	// Load shedding before quota: a queue the service cannot drain should
	// turn clients away with a back-off hint rather than absorb more work.
	if max := s.cfg.MaxQueueDepth; max > 0 && len(s.queue) >= max {
		s.mu.Unlock()
		s.m.shed.Inc()
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: queue depth %d at the global bound", ErrOverload, max)
	}
	queued, queuedBytes := 0, int64(0)
	var oldest time.Time
	for _, id := range s.queue {
		if j := s.jobs[id]; j.spec.Tenant == spec.Tenant {
			queued++
			queuedBytes += j.spec.bytes()
			if oldest.IsZero() || j.queuedAt.Before(oldest) {
				oldest = j.queuedAt
			}
		}
	}
	if maxAge := s.cfg.MaxQueueAge; maxAge > 0 && !oldest.IsZero() {
		if age := time.Since(oldest); age > maxAge {
			s.mu.Unlock()
			s.m.shed.Inc()
			s.m.rejected.Inc()
			return 0, fmt.Errorf("%w: tenant %q backlog is %s old (bound %s)",
				ErrOverload, spec.Tenant, age.Round(time.Millisecond), maxAge)
		}
	}
	if q.MaxQueued > 0 && queued >= q.MaxQueued {
		s.mu.Unlock()
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: tenant %q has %d jobs queued (max %d)", ErrQuota, spec.Tenant, queued, q.MaxQueued)
	}
	if q.MaxQueuedBytes > 0 && queuedBytes+size > q.MaxQueuedBytes {
		s.mu.Unlock()
		s.m.rejected.Inc()
		return 0, fmt.Errorf("%w: tenant %q queued bytes %d + %d exceed %d", ErrQuota, spec.Tenant, queuedBytes, size, q.MaxQueuedBytes)
	}
	id := s.nextID
	s.nextID++
	now := time.Now()
	j := &job{
		id: id, spec: spec, state: StateQueued, submitted: now, queuedAt: now,
		reg: obs.NewRegistry(), done: make(chan struct{}),
	}
	if spec.Deadline > 0 {
		j.deadline = now.Add(spec.Deadline)
	}
	j.events = append(j.events, Event{Time: now, Msg: "submitted"})
	if s.jnl != nil {
		if err := s.jnl.submit(id, now, &spec); err != nil {
			s.mu.Unlock()
			s.m.rejected.Inc()
			return 0, fmt.Errorf("jobd: journaling submission: %w", err)
		}
	}
	s.jobs[id] = j
	s.queue = append(s.queue, id)
	s.m.depth.Set(int64(len(s.queue)))
	s.tenantGauges(spec.Tenant)
	s.mu.Unlock()

	s.m.submitted.Inc()
	s.kick()
	return id, nil
}

// kick nudges the dispatcher (non-blocking: one pending wake is enough).
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch starts queued jobs as quota and worker health allow. Besides
// explicit kicks it wakes itself on a timer armed at the earliest pending
// backoff expiry or queued-job deadline, so retries dispatch and TTLs fire
// without polling.
func (s *Server) dispatch() {
	defer s.loops.Done()
	for {
		s.expireDeadlines()
		for {
			j := s.takeRunnable()
			if j == nil {
				break
			}
			s.jobsWG.Add(1)
			go s.runJob(j)
		}
		var tc <-chan time.Time
		var timer *time.Timer
		if next, ok := s.nextWake(); ok {
			d := time.Until(next)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.NewTimer(d)
			tc = timer.C
		}
		select {
		case <-s.wake:
		case <-tc:
		case <-s.stopped:
			if timer != nil {
				timer.Stop()
			}
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// takeRunnable pops the best queued job that can start now: past its
// backoff time, global and tenant concurrency below their caps, every
// placement host registered, healthy, and out of quarantine. Among
// runnable candidates it prefers the one whose workers carry the fewest
// strikes (FIFO breaks ties), so jobs route around flaky-but-not-yet-
// quarantined workers when an alternative exists. Returns nil when nothing
// can start.
func (s *Server) takeRunnable() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running >= s.cfg.maxRunning() {
		return nil
	}
	now := time.Now()
	best, bestStrikes := -1, 0
	for i, id := range s.queue {
		j := s.jobs[id]
		if !j.notBefore.IsZero() && now.Before(j.notBefore) {
			continue
		}
		q := s.cfg.quotaFor(j.spec.Tenant)
		if q.MaxRunning > 0 && s.tenantRun[j.spec.Tenant] >= q.MaxRunning {
			continue
		}
		ready, strikes := s.hostsReadyLocked(j.spec.hosts())
		if !ready {
			continue
		}
		if strikes == 0 {
			best, bestStrikes = i, 0
			break // FIFO-first zero-strike candidate; no better exists
		}
		if best == -1 || strikes < bestStrikes {
			best, bestStrikes = i, strikes
		}
	}
	if best == -1 {
		return nil
	}
	j := s.jobs[s.queue[best]]
	s.queue = append(s.queue[:best:best], s.queue[best+1:]...)
	j.state = StateRunning
	j.started = now
	s.m.queueAge.Observe(now.Sub(j.queuedAt).Seconds())
	if j.attempts > 0 {
		j.events = append(j.events, Event{Time: j.started, Msg: fmt.Sprintf("started (attempt %d)", j.attempts+1)})
	} else {
		j.events = append(j.events, Event{Time: j.started, Msg: "started"})
	}
	s.running++
	s.tenantRun[j.spec.Tenant]++
	s.m.depth.Set(int64(len(s.queue)))
	s.m.running.Set(int64(s.running))
	s.tenantGauges(j.spec.Tenant)
	if s.jnl != nil {
		_ = s.jnl.start(j.id, j.started)
	}
	return j
}

// hostsReadyLocked reports whether every host is dispatchable (registered,
// healthy, not quarantined) and, when so, the worst strike count among
// them — the dispatcher's preference key.
func (s *Server) hostsReadyLocked(hosts []string) (bool, int) {
	max := 0
	for _, h := range hosts {
		w := s.workers[h]
		if w == nil || !w.Healthy || w.Quarantined {
			return false, 0
		}
		if w.Strikes > max {
			max = w.Strikes
		}
	}
	return true, max
}

// runJob executes one job as a dist coordinator over the shared mesh. The
// job id becomes Options.JobID, so its session interleaves with other jobs
// on the same persistent workers. The run's context carries the job's
// deadline and cancel request into the dist session; its outcome routes
// through the resilience layer — success rewards the workers, an
// attributed failure charges them strikes, and a failure within the retry
// budget re-queues with backoff instead of going terminal.
func (s *Server) runJob(j *job) {
	defer s.jobsWG.Done()
	s.mu.Lock()
	addrs := make(map[string]string)
	for _, h := range j.spec.hosts() {
		if w := s.workers[h]; w != nil {
			addrs[h] = w.Addr
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if !j.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(context.Background(), j.deadline)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j.cancel = cancel
	if j.cancelReq { // Cancel raced the dispatch; honor it immediately
		cancel()
	}
	s.mu.Unlock()
	defer cancel()

	opts := j.spec.Options
	opts.JobID = j.id
	var uows []any
	for _, raw := range j.spec.UOWs {
		uows = append(uows, raw)
	}
	st, err := s.pool.Run(ctx, addrs, j.spec.Graph, j.spec.Placement, opts, uows, obs.New(nil, j.reg))

	now := time.Now()
	s.mu.Lock()
	j.cancel = nil
	j.stats = st
	s.running--
	s.tenantRun[j.spec.Tenant]--
	s.m.running.Set(int64(s.running))

	switch {
	case err == nil:
		s.rewardLocked(j.spec.hosts())
		s.finishLocked(j, StateDone, now, nil, "done")
	case j.cancelReq:
		s.finishLocked(j, StateCancelled, now, err, "cancelled: "+err.Error())
	case ctx.Err() == context.DeadlineExceeded:
		s.m.deadlined.Inc()
		s.finishLocked(j, StateFailed, now, err, "failed: deadline exceeded: "+err.Error())
	default:
		s.chargeStrikesLocked(attributedHosts(err), now)
		if !s.draining && j.attempts < j.retryBudget(s.cfg) {
			s.requeueForRetryLocked(j, now, err)
		} else {
			s.finishLocked(j, StateFailed, now, err, "failed: "+err.Error())
		}
	}
	s.tenantGauges(j.spec.Tenant)
	s.mu.Unlock()
	s.kick()
}

// tenantGauges refreshes one tenant's queued/running gauges; callers hold
// s.mu.
func (s *Server) tenantGauges(tenant string) {
	if tenant == "" {
		tenant = "default"
	}
	queued := 0
	for _, id := range s.queue {
		t := s.jobs[id].spec.Tenant
		if t == "" {
			t = "default"
		}
		if t == tenant {
			queued++
		}
	}
	run := s.tenantRun[tenant]
	if tenant == "default" {
		run = s.tenantRun[""]
	}
	s.reg.Gauge("jobd.tenant." + tenant + ".queued").Set(int64(queued))
	s.reg.Gauge("jobd.tenant." + tenant + ".running").Set(int64(run))
}

// Get returns a job snapshot.
func (s *Server) Get(id uint64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// Jobs lists every known job, id-ordered.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Events returns a job's history.
func (s *Server) Events(id uint64) ([]Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return append([]Event(nil), j.events...), true
}

// Metrics snapshots the server's own registry (admission counters, queue
// and worker gauges).
func (s *Server) Metrics() map[string]any { return s.reg.Snapshot() }

// JobMetrics snapshots one job's isolated coordinator-side registry.
func (s *Server) JobMetrics(id uint64) (map[string]any, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.reg.Snapshot(), true
}

// Await blocks until the job reaches a terminal state or the timeout
// elapses. The wait is a channel receive on the job's done signal —
// terminal transitions are observed the instant finishLocked closes it,
// with no polling.
func (s *Server) Await(id uint64, timeout time.Duration) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("jobd: no job %d", id)
	}
	done := j.done
	s.mu.Unlock()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		snap, _ := s.Get(id)
		return snap, nil
	case <-t.C:
		snap, _ := s.Get(id)
		return snap, fmt.Errorf("jobd: job %d still %s after %v", id, snap.State, timeout)
	}
}

// RegisterWorker adds or refreshes a persistent worker. Registration
// implies liveness (the worker just spoke to us); the prober maintains it
// from here. The failure-scoring record (strikes, quarantine, probation)
// survives re-registration on purpose — a flaky worker cannot launder its
// history by re-announcing itself; it leaves quarantine only through the
// prober's half-open probe.
func (s *Server) RegisterWorker(host, addr, health string) {
	now := time.Now()
	s.mu.Lock()
	w := s.workers[host]
	if w == nil {
		w = &WorkerInfo{Host: host}
		s.workers[host] = w
	}
	if w.Addr != addr {
		s.pool.Drop(w.Addr)
	}
	w.Addr, w.Health = addr, health
	w.Healthy = true
	w.Registered, w.LastProbe = now, now
	s.healthyGaugeLocked()
	s.mu.Unlock()
	s.kick()
}

// Workers lists registered workers, host-ordered.
func (s *Server) Workers() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.workers))
	for _, w := range s.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Host < out[k].Host })
	return out
}

func (s *Server) healthyGaugeLocked() {
	n := 0
	for _, w := range s.workers {
		if w.Healthy {
			n++
		}
	}
	s.m.healthy.Set(int64(n))
}

// probe sweeps worker liveness every ProbeInterval: GET /healthz on the
// worker's debug address when it published one, a bare TCP dial of its
// dist address otherwise. A worker that fails its probe is unhealthy until
// a probe (or re-registration) succeeds; queued jobs placed on it wait.
//
// Quarantined workers follow the circuit-breaker's half-open protocol:
// before ProbationAt they are skipped entirely (the breaker is open); once
// probation elapses one probe is attempted — success reinstates the worker
// with a clean record, failure extends probation by another period.
func (s *Server) probe() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.probeInterval())
	defer t.Stop()
	client := &http.Client{Timeout: s.cfg.probeInterval()}
	for {
		select {
		case <-t.C:
		case <-s.stopped:
			return
		}
		s.mu.Lock()
		targets := make([]WorkerInfo, 0, len(s.workers))
		for _, w := range s.workers {
			if w.Quarantined && time.Now().Before(w.ProbationAt) {
				continue // breaker open: no traffic, not even probes
			}
			targets = append(targets, *w)
		}
		s.mu.Unlock()
		for _, w := range targets {
			healthy := probeWorker(client, w)
			now := time.Now()
			s.mu.Lock()
			if cur := s.workers[w.Host]; cur != nil {
				cur.Healthy = healthy
				cur.LastProbe = now
				if !healthy {
					s.pool.Drop(cur.Addr)
				}
				if cur.Quarantined {
					if healthy {
						// Half-open probe succeeded: close the breaker.
						cur.Quarantined = false
						cur.Strikes = 0
						cur.ProbationAt = time.Time{}
						s.m.reinstated.Inc()
					} else {
						cur.ProbationAt = now.Add(s.cfg.probation())
					}
					s.quarantineGaugeLocked()
				}
				s.healthyGaugeLocked()
			}
			s.mu.Unlock()
		}
		s.kick() // newly healthy or reinstated workers may unblock queued jobs
	}
}

// dialProbe is the fallback liveness check for workers that did not
// publish a debug address: a bare TCP dial of the dist listener.
func dialProbe(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func probeWorker(client *http.Client, w WorkerInfo) bool {
	if w.Health != "" {
		resp, err := client.Get("http://" + w.Health + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	c, err := dialProbe(w.Addr, client.Timeout)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

// Drain stops admitting jobs and waits up to timeout for the queue to
// empty and every running job to finish. Queued jobs that cannot start
// (e.g. their workers are gone) remain journaled for the next process.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		idle := s.running == 0
		s.mu.Unlock()
		if idle {
			s.jobsWG.Wait() // runJob bookkeeping finished too
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the dispatcher and prober, closes the idle worker links and
// the journal. Jobs still running are left to finish on their own workers;
// their completion records may be lost — call Drain first for a clean stop.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopped) })
	s.loops.Wait()
	s.pool.Close()
	if s.jnl != nil {
		s.jnl.close()
	}
}
