package conformance

import (
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/dist"
)

// DistJob packages one seeded conformance pipeline for execution on an
// externally managed worker mesh — the oracle side of multi-job testing:
// internal/jobd submits the Graph/Placement/Policies to its shared workers
// and hands the run's stats back to Check, which diffs them (and the
// identities the filters recorded) against the same reference model the
// in-package harness uses. Each DistJob owns a fresh Recorder, so two jobs
// running concurrently over the same workers are checked independently —
// any cross-job frame leak shows up as an unexpected identity.
//
// The spec's generated host names (h0, h1, ...) are renamed onto the
// caller's worker names, so many jobs with differently-shaped specs can
// share one fixed mesh. Close releases the process-global recorder token;
// always call it when the job is done.
type DistJob struct {
	Spec      *Spec
	Graph     dist.GraphSpec
	Placement []dist.PlacementEntry
	// Policies is the per-stream writer-policy table for dist.Options.
	Policies map[string]string
	QueueCap int
	// UOWs are the job's unit-of-work descriptors, pre-encoded so a job
	// server can relay them without knowing their types.
	UOWs []dist.RawUOW
	// Hosts are the worker names this job places filters on (a subset of
	// the names passed to NewDistJob).
	Hosts []string

	rec *Recorder
	m   *model
	tok uint64
}

// NewDistJob builds a DistJob from a spec, renaming the spec's hosts onto
// the given worker names (spec host i becomes hosts[i]); the spec must not
// need more hosts than are offered. The returned job holds a recorder
// registration — callers must Close it.
func NewDistJob(s *Spec, hosts []string) (*DistJob, error) {
	if len(s.Hosts) > len(hosts) {
		return nil, fmt.Errorf("conformance: spec needs %d hosts, mesh offers %d", len(s.Hosts), len(hosts))
	}
	c := s.Clone()
	rename := make(map[string]string, len(c.Hosts))
	for i := range c.Hosts {
		rename[c.Hosts[i].Name] = hosts[i]
		c.Hosts[i].Name = hosts[i]
	}
	for i := range c.Placement {
		c.Placement[i].Host = rename[c.Placement[i].Host]
	}
	for i := range c.Scale {
		c.Scale[i].Host = rename[c.Scale[i].Host]
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}

	rec := newRecorder()
	tok := registerRecorder(rec)
	j := &DistJob{
		Spec:     c,
		Policies: policyNames(c),
		QueueCap: c.QueueCap,
		UOWs:     make([]dist.RawUOW, 0, c.UOWs),
		Hosts:    c.hostNames(),
		rec:      rec,
		m:        buildModel(c),
		tok:      tok,
	}
	var err error
	if j.Graph, j.Placement, err = distGraph(c, rec, tok); err != nil {
		releaseRecorder(tok)
		return nil, err
	}
	for _, w := range uowList(c) {
		raw, err := dist.EncodeUOW(w)
		if err != nil {
			releaseRecorder(tok)
			return nil, err
		}
		j.UOWs = append(j.UOWs, raw)
	}
	return j, nil
}

// Options returns the dist run options the job's mesh execution needs
// (per-stream policies, queue capacity, the elastic scale schedule when the
// spec carries one); the executor sets JobID itself.
func (j *DistJob) Options() dist.Options {
	return dist.Options{Policy: "RR", StreamPolicy: j.Policies, QueueCap: j.QueueCap, ScaleSchedule: j.Spec.Scale}
}

// Check diffs a completed run — its aggregated stats plus everything this
// job's filters recorded — against the oracle model, returning the
// violations (empty = conformant).
func (j *DistJob) Check(st *core.Stats) []string {
	return checkRun(j.m, st, j.rec, false)
}

// CheckAtLeastOnce diffs a completed run against the relaxed at-least-once
// oracle: every expected delivery and end-of-work must be seen at least its
// expected count, extras are allowed. This is the correct oracle for a job
// that failed partway and was re-run by a resilience layer (jobd retry):
// the aborted attempt's partial traffic legitimately inflates the records.
func (j *DistJob) CheckAtLeastOnce(st *core.Stats) []string {
	v := checkRun(j.m, st, j.rec, true)
	// The relaxed pass still rejects identities outside the model entirely;
	// those are cross-job leaks, not retry artifacts, and stay violations.
	return v
}

// Deliveries exposes the job's recorded identity multiset, so tests can
// assert two concurrent jobs' records never bleed into each other.
func (j *DistJob) Deliveries() map[DeliveryKey]int { return j.rec.Deliveries() }

// Close releases the job's recorder registration.
func (j *DistJob) Close() { releaseRecorder(j.tok) }
