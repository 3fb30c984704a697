package jobd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"datacutter/internal/dist"
)

// This file is the service-level resilience layer (DESIGN.md §15): job
// retry with journaled exponential backoff, worker failure scoring with
// circuit-breaker quarantine, deadline enforcement and cancellation, and
// the journal-compaction trigger. It composes with — rather than replaces
// — the in-run recovery the dist coordinator already performs: a run only
// reaches this layer after UOW replanning inside the session has given up.

// Config accessors with the documented defaults.

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 500 * time.Millisecond
}

func (c Config) retryBackoffMax() time.Duration {
	if c.RetryBackoffMax > 0 {
		return c.RetryBackoffMax
	}
	return 30 * time.Second
}

func (c Config) quarantineStrikes() int {
	if c.QuarantineStrikes > 0 {
		return c.QuarantineStrikes
	}
	return 3
}

func (c Config) probation() time.Duration {
	if c.Probation > 0 {
		return c.Probation
	}
	return 30 * time.Second
}

func (c Config) shedRetryAfter() time.Duration {
	if c.ShedRetryAfter > 0 {
		return c.ShedRetryAfter
	}
	return 5 * time.Second
}

func (c Config) journalCompactBytes() int64 {
	if c.JournalCompactBytes > 0 {
		return c.JournalCompactBytes
	}
	return 4 << 20
}

// retryBudget resolves the job's effective retry budget: the spec's
// explicit positive budget, 0 for an explicit -1 (retries disabled), the
// server default otherwise.
func (j *job) retryBudget(cfg Config) int {
	switch {
	case j.spec.MaxRetries > 0:
		return j.spec.MaxRetries
	case j.spec.MaxRetries < 0:
		return 0
	default:
		return cfg.DefaultMaxRetries
	}
}

// backoffFor is the delay before retry attempt n (1-based): base*2^(n-1)
// capped at the max, with ±25% jitter so a burst of same-shaped failures
// does not re-dispatch in lockstep.
func (s *Server) backoffFor(attempt int) time.Duration {
	base, max := s.cfg.retryBackoff(), s.cfg.retryBackoffMax()
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}

// finishLocked moves a job to a terminal state: history event, journal
// done record, terminal counters, and the done-channel close that wakes
// every Await. Callers hold s.mu and have already removed the job from the
// queue / running accounting.
func (s *Server) finishLocked(j *job, st State, now time.Time, runErr error, msg string) {
	j.state = st
	j.finished = now
	if runErr != nil {
		j.err = runErr.Error()
	}
	j.events = append(j.events, Event{Time: now, Msg: msg})
	if s.jnl != nil {
		if runErr == nil && st != StateDone {
			runErr = errors.New(msg)
		}
		_ = s.jnl.done(j.id, now, runErr)
		s.compactJournalLocked()
	}
	switch st {
	case StateDone:
		s.m.completed.Inc()
	case StateCancelled:
		s.m.cancelled.Inc()
	default:
		s.m.failed.Inc()
	}
	close(j.done)
}

// requeueForRetryLocked puts a failed job back on the queue in backoff
// state. The retry record is journaled with the absolute not-before time,
// so a server restarted mid-backoff resumes the schedule (and the attempt
// count) instead of losing or double-running the attempt. Callers hold
// s.mu.
func (s *Server) requeueForRetryLocked(j *job, now time.Time, cause error) {
	j.attempts++
	delay := s.backoffFor(j.attempts)
	j.state = StateBackoff
	j.notBefore = now.Add(delay)
	j.queuedAt = now // age shedding measures the re-queue, not the submission
	j.events = append(j.events, Event{Time: now, Msg: fmt.Sprintf(
		"attempt %d failed, retry %d/%d in %s: %v",
		j.attempts, j.attempts, j.retryBudget(s.cfg), delay.Round(time.Millisecond), cause)})
	s.queue = append(s.queue, j.id)
	s.m.depth.Set(int64(len(s.queue)))
	s.m.retried.Inc()
	if s.jnl != nil {
		_ = s.jnl.retry(j.id, now, j.attempts, j.notBefore, cause)
	}
}

// attributedHosts extracts the workers a dist run failure implicates, via
// the typed attribution error the coordinator wraps around host-charged
// failures. Unattributed failures (bad spec, coordinator-side errors)
// return nil and charge nobody.
func attributedHosts(err error) []string {
	var he *dist.HostsError
	if errors.As(err, &he) {
		return he.Hosts
	}
	return nil
}

// chargeStrikesLocked charges one strike to each implicated worker; a
// worker reaching the strike bound is quarantined — the breaker opens, the
// dispatcher stops routing to it, its idle links close — until probation
// elapses and a half-open probe succeeds. Callers hold s.mu.
func (s *Server) chargeStrikesLocked(hosts []string, now time.Time) {
	for _, h := range hosts {
		w := s.workers[h]
		if w == nil || w.Quarantined {
			continue
		}
		w.Strikes++
		if w.Strikes >= s.cfg.quarantineStrikes() {
			s.pool.Drop(w.Addr)
			w.Quarantined = true
			w.ProbationAt = now.Add(s.cfg.probation())
			s.m.quarantined.Inc()
			s.quarantineGaugeLocked()
		}
	}
}

// rewardLocked clears the strike record of workers that just carried a run
// to completion — scoring tracks a recent-failure streak, not lifetime
// totals. Quarantined workers are not rewarded (they were not part of the
// run); only the half-open probe reinstates them. Callers hold s.mu.
func (s *Server) rewardLocked(hosts []string) {
	for _, h := range hosts {
		if w := s.workers[h]; w != nil && !w.Quarantined {
			w.Strikes = 0
		}
	}
}

func (s *Server) quarantineGaugeLocked() {
	n := 0
	for _, w := range s.workers {
		if w.Quarantined {
			n++
		}
	}
	s.m.inQuarantine.Set(int64(n))
}

// Cancel requests a job's termination. A queued or backoff job finishes
// immediately as cancelled; a running job has its dist session's context
// cancelled, which tears the session down through the abort protocol — the
// job then lands in cancelled when the run returns. Returns ErrTerminal if
// the job already finished.
func (s *Server) Cancel(id uint64) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("jobd: no job %d", id)
	}
	if j.state.Terminal() {
		snap := j.snapshot()
		s.mu.Unlock()
		return snap, ErrTerminal
	}
	now := time.Now()
	j.cancelReq = true
	if j.state == StateRunning {
		j.events = append(j.events, Event{Time: now, Msg: "cancel requested"})
		if j.cancel != nil {
			j.cancel()
		}
	} else {
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
				break
			}
		}
		s.m.depth.Set(int64(len(s.queue)))
		s.finishLocked(j, StateCancelled, now, context.Canceled, "cancelled by request")
		s.tenantGauges(j.spec.Tenant)
	}
	snap := j.snapshot()
	s.mu.Unlock()
	return snap, nil
}

// expireDeadlines fails every queued job whose TTL has passed — it never
// gets to run. Running jobs enforce their deadline through the run
// context; this sweep covers jobs stuck behind quota, dead workers, or
// backoff.
func (s *Server) expireDeadlines() {
	now := time.Now()
	s.mu.Lock()
	keep := s.queue[:0]
	expired := false
	for _, id := range s.queue {
		j := s.jobs[id]
		if !j.deadline.IsZero() && now.After(j.deadline) {
			s.m.deadlined.Inc()
			s.finishLocked(j, StateFailed, now,
				fmt.Errorf("deadline exceeded after %s, before the job could run", j.spec.Deadline),
				"failed: deadline exceeded while queued")
			s.tenantGauges(j.spec.Tenant)
			expired = true
			continue
		}
		keep = append(keep, id)
	}
	if expired {
		s.queue = keep
		s.m.depth.Set(int64(len(s.queue)))
	}
	s.mu.Unlock()
}

// nextWake is the earliest future instant the dispatcher must act without
// an external kick: a backoff expiring or a queued job's deadline. Returns
// ok=false when nothing is pending.
func (s *Server) nextWake() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var next time.Time
	consider := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}
	for _, id := range s.queue {
		j := s.jobs[id]
		if j.notBefore.After(now) {
			consider(j.notBefore)
		}
		consider(j.deadline)
	}
	return next, !next.IsZero()
}

// compactJournalLocked rewrites the journal as one snapshot record per
// live (non-terminal) job when the log has outgrown the configured bound.
// It is also called unconditionally after startup replay — recovery is the
// natural compaction point, since everything the replay discarded would
// otherwise re-accumulate across every restart. Callers hold s.mu.
func (s *Server) compactJournalLocked() {
	if s.jnl == nil {
		return
	}
	if s.jnl.size < s.cfg.journalCompactBytes() && !s.jnl.dirty {
		return
	}
	recs := make([]journalRec, 0, len(s.queue)+s.running)
	for _, j := range s.jobs {
		if j.state.Terminal() {
			continue
		}
		r := journalRec{Kind: "submit", ID: j.id, Time: j.submitted, Spec: &j.spec}
		recs = append(recs, r)
		if j.attempts > 0 {
			recs = append(recs, journalRec{
				Kind: "retry", ID: j.id, Time: j.queuedAt,
				Attempt: j.attempts, NotBeforeMS: j.notBefore.UnixMilli(),
			})
		}
	}
	_ = s.jnl.compact(recs)
}
