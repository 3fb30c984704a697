package conformance

import (
	"fmt"
	"strings"

	"datacutter/internal/core"
	"datacutter/internal/elastic"
	"datacutter/internal/obs"
)

// Options configures a conformance check.
type Options struct {
	// Engines selects which engines to run ("core", "simrt", "dist");
	// empty means all three.
	Engines []string
	// Perturb, if set, mutates an engine's stats before the oracle diff.
	// It exists so the harness can be tested against itself: inject a
	// violation (e.g. discard the ack counts) and assert the oracle
	// catches it and the shrinker minimizes it.
	Perturb func(engine string, st *core.Stats)
}

func (o Options) engines() []string {
	if len(o.Engines) == 0 {
		return engineNames
	}
	return o.Engines
}

// Failure describes one conformance violation: which spec, which engine,
// and every oracle it broke.
type Failure struct {
	Spec       *Spec
	Engine     string
	Violations []string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("engine %s violated %d oracle(s) on %s  - %s",
		f.Engine, len(f.Violations), strings.TrimSpace(f.Spec.String()),
		strings.Join(f.Violations, "\n  - "))
}

// ReproCommand returns the one-line command that reproduces a failing
// seed: the conformance test re-generates the same spec from the seed and
// re-runs the full check + shrink.
func ReproCommand(seed int64) string {
	return fmt.Sprintf("go test ./internal/conformance -run 'TestConformance$' -conformance.seed=%d", seed)
}

// Check runs the spec on every selected engine and diffs each run against
// the oracle model (a spec with fused transforms against the deliveries of
// its unfused self, see checkFused). It returns nil if every engine
// conforms, or the first engine's Failure otherwise. Each engine gets a
// fresh Recorder; engines run sequentially so a violation is attributed
// unambiguously.
func Check(s *Spec, opts Options) *Failure {
	if err := s.Validate(); err != nil {
		return &Failure{Spec: s, Engine: "spec", Violations: []string{err.Error()}}
	}
	m := buildModel(s)
	for _, engine := range opts.engines() {
		rec := newRecorder()
		st, err := runEngine(engine, s, rec)
		if err != nil {
			return &Failure{Spec: s, Engine: engine, Violations: []string{"run failed: " + err.Error()}}
		}
		if opts.Perturb != nil {
			opts.Perturb(engine, st)
		}
		var v []string
		if len(s.Fused) > 0 {
			v = checkFused(m, rec)
		} else {
			v = checkRun(m, st, rec, false)
		}
		if len(v) > 0 {
			return &Failure{Spec: s, Engine: engine, Violations: v}
		}
	}
	return nil
}

// CheckFaults runs the spec on the distributed engine with a deterministic
// mid-run worker kill and validates the relaxed (at-least-once) oracle
// after UOW replanning: the run must still complete, every expected
// identity must reach its consumer at least once, nothing unexpected may
// appear, and every consumer copy must see end-of-work. The second return
// is false when the spec has no qualifying kill victim (fewer than two
// hosts, or no host with a scheduling-independent guarantee of at least
// two inbound remote data frames — the kill trigger must be guaranteed to
// fire or the test would be vacuous).
func CheckFaults(s *Spec) (*Failure, bool) {
	if err := s.Validate(); err != nil {
		return &Failure{Spec: s, Engine: "spec", Violations: []string{err.Error()}}, true
	}
	if len(s.Hosts) < 2 {
		return nil, false
	}
	m := buildModel(s)
	victim := ""
	for _, h := range s.Hosts {
		if m.remoteIn[h.Name] >= 2 && (victim == "" || m.remoteIn[h.Name] > m.remoteIn[victim]) {
			victim = h.Name
		}
	}
	if victim == "" {
		return nil, false
	}
	rec := newRecorder()
	reg := obs.NewRegistry()
	st, err := runDist(s, rec, map[string]string{victim: "kill=data:2"}, faultTune, reg)
	if err != nil {
		return &Failure{Spec: s, Engine: "dist+faults",
			Violations: []string{fmt.Sprintf("run failed after killing %s: %v", victim, err)}}, true
	}
	v := checkRun(m, st, rec, true)
	// The victim is chosen so the kill trigger is guaranteed to fire: the
	// coordinator must have replanned and retried at least one unit of
	// work, or the run passed vacuously.
	if retries := reg.Counter("coord.uow_retries").Value(); retries < 1 {
		v = append(v, fmt.Sprintf("killed %s but coord.uow_retries = %d (kill never fired?)", victim, retries))
	}
	if len(v) > 0 {
		return &Failure{Spec: s, Engine: "dist+faults", Violations: v}, true
	}
	return nil, true
}

// Shrink greedily minimizes a failing spec: it repeatedly tries the
// candidate reductions below (drop a filter with its streams and
// placements, drop a stream, drop a placement entry, collapse copies,
// halve a source's emit count, collapse units of work), keeps the first
// candidate that still fails, and restarts until no reduction fails or
// the run budget is spent. The result is a locally minimal spec plus its
// failure. maxRuns bounds the number of Check executions (<=0 selects
// 200).
func Shrink(s *Spec, opts Options, maxRuns int) (*Spec, *Failure) {
	if maxRuns <= 0 {
		maxRuns = 200
	}
	cur := s.Clone()
	fail := Check(cur, opts)
	runs := 1
	if fail == nil {
		return cur, nil
	}
	for runs < maxRuns {
		progressed := false
		for _, cand := range shrinkCandidates(cur) {
			if cand.Validate() != nil {
				continue
			}
			f := Check(cand, opts)
			runs++
			if f != nil {
				cur, fail = cand, f
				progressed = true
				break
			}
			if runs >= maxRuns {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return cur, fail
}

// shrinkCandidates enumerates single-step reductions of a spec, most
// aggressive first, in deterministic order.
func shrinkCandidates(s *Spec) []*Spec {
	var out []*Spec
	for i := range s.Filters {
		out = append(out, removeFilter(s, s.Filters[i].Name))
	}
	for i := range s.Streams {
		c := s.Clone()
		c.Streams = append(c.Streams[:i:i], c.Streams[i+1:]...)
		out = append(out, c)
	}
	for i, p := range s.Placement {
		if len(s.entriesOf(p.Filter)) > 1 {
			c := s.Clone()
			c.Placement = append(c.Placement[:i:i], c.Placement[i+1:]...)
			c.normalizeHosts()
			out = append(out, c)
		}
	}
	for i, p := range s.Placement {
		if p.Copies > 1 {
			c := s.Clone()
			c.Placement[i].Copies = 1
			out = append(out, c)
		}
	}
	for i, f := range s.Filters {
		if f.Role == RoleSource && f.Emit > 2 {
			c := s.Clone()
			c.Filters[i].Emit = f.Emit / 2
			out = append(out, c)
		}
	}
	if s.UOWs > 1 {
		c := s.Clone()
		c.UOWs = 1
		out = append(out, c)
	}
	for i := range s.Scale {
		// A failure that survives without a scale step is not an elasticity
		// bug; one that doesn't keeps the step in its minimal reproduction.
		c := s.Clone()
		c.Scale = append(c.Scale[:i:i], c.Scale[i+1:]...)
		out = append(out, c)
	}
	for i := range s.Fused {
		// Unfuse one transform: a failure that survives with it back on its
		// own copies is not a fusion bug.
		c := s.Clone()
		c.Fused = append(c.Fused[:i:i], c.Fused[i+1:]...)
		out = append(out, c)
	}
	if s.Pred != nil {
		// Drop the pushdown predicate: a failure that survives without it
		// is not a pruning bug, and one that doesn't keeps the predicate in
		// its minimal reproduction.
		c := s.Clone()
		c.Pred = nil
		out = append(out, c)
	}
	return out
}

// removeFilter drops a filter along with every stream and placement entry
// that references it.
func removeFilter(s *Spec, name string) *Spec {
	c := s.Clone()
	c.Filters = filterSlice(c.Filters, func(f Filter) bool { return f.Name != name })
	c.Streams = filterSlice(c.Streams, func(st Stream) bool { return st.From != name && st.To != name })
	c.Placement = filterSlice(c.Placement, func(p Place) bool { return p.Filter != name })
	c.Scale = filterSlice(c.Scale, func(st elastic.ScaleStep) bool { return st.Filter != name })
	c.Fused = filterSlice(c.Fused, func(f string) bool { return f != name })
	c.normalizeHosts()
	return c
}

func filterSlice[T any](in []T, keep func(T) bool) []T {
	out := in[:0:0]
	for _, v := range in {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}
