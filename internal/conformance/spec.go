// Package conformance is a deterministic, seed-driven property-testing
// harness for the three execution engines. It generates random-but-valid
// pipeline graphs (fan-in/fan-out, mixed writer policies, transparent copy
// counts, heterogeneous host placements, mixed payload wire types), runs
// each graph on internal/core, internal/simrt, and internal/dist over TCP
// loopback, and diffs every engine against a shared reference model:
// multiset equality of delivered buffers per consumer filter, exact RR/WRR
// per-target distributions (replayed through the very exec.Policy writers
// the engines use), demand-driven ack-count bounds, exactly-once
// end-of-work per consumer copy, and zero goroutine leaks. In pushdown
// mode (GenConfig.Pushdown) a near-storage predicate prunes identities at
// the sources and a conservation oracle requires the pruned and delivered
// sets to exactly partition the full multiset. In fused mode
// (GenConfig.Fused) transforms run fused into their producers and every
// consumer must still receive what the unfused pipeline delivers. A failing
// seed is greedily shrunk to a minimal reproduction (see shrink.go).
//
// Everything is derived from a Spec, which is in turn derived from a seed:
// the same seed always produces the same graph, placement, policies, and
// payloads, so one integer reproduces any failure
// (go test ./internal/conformance -run 'TestConformance$' -conformance.seed=N).
package conformance

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/elastic"
)

// Wire selects how a stream's payload identities travel: as a string
// (conformance's own registered codec), as []byte (dist's zero-copy
// built-in codec), or as []float32 (dist's bulk little-endian built-in
// codec). On core and simrt the value is passed through unchanged; on dist
// it exercises the codec registry end to end.
type Wire uint8

const (
	WireString Wire = iota
	WireBytes
	WireFloats
)

func (w Wire) String() string {
	switch w {
	case WireString:
		return "string"
	case WireBytes:
		return "bytes"
	case WireFloats:
		return "floats"
	}
	return fmt.Sprintf("wire(%d)", uint8(w))
}

// Role classifies a conformance filter.
type Role uint8

const (
	// RoleSource emits Emit deterministic buffers per copy per unit of work
	// on every output stream.
	RoleSource Role = iota + 1
	// RoleTransform forwards every buffer it reads to every output stream,
	// appending its own name to the payload identity.
	RoleTransform
	// RoleSink consumes and records; it has no outputs.
	RoleSink
)

func (r Role) String() string {
	switch r {
	case RoleSource:
		return "source"
	case RoleTransform:
		return "transform"
	case RoleSink:
		return "sink"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Filter is one conformance filter: a source, transform, or sink.
type Filter struct {
	Name string
	Role Role
	Emit int // buffers per copy per UOW per output stream (sources only)
}

// Stream is one logical stream with its writer policy and wire type.
type Stream struct {
	Name   string
	From   string
	To     string
	Policy string // "RR" | "WRR" | "DD" | "DD/<k>"
	Wire   Wire
}

// Place assigns transparent copies of a filter to a host.
type Place struct {
	Filter string
	Host   string
	Copies int
}

// Host is one simulated/loopback host; Speed feeds the simrt cluster model
// (heterogeneous CPUs change scheduling timing, never semantics).
type Host struct {
	Name  string
	Speed float64
}

// Spec is a fully deterministic description of one conformance pipeline:
// everything the three engines need to construct observationally equivalent
// runs, plus the knobs the oracle model consumes.
type Spec struct {
	Seed      int64 // provenance; 0 for hand-built specs
	Filters   []Filter
	Streams   []Stream
	Placement []Place
	Hosts     []Host
	UOWs      int
	// QueueCap is the per-copy-set queue capacity. The generator sizes it
	// above the largest per-stream buffer count so that a filter draining
	// its input streams sequentially can never deadlock a producer.
	QueueCap int
	// Scale lists seeded copy-set membership changes applied at work-cycle
	// boundaries on every engine. The harness restricts steps to what keeps
	// the oracle model exact: non-source filters only (source copy counts
	// define the emitted identity multiset), existing (filter, host)
	// placement entries only, Copies >= 1 (the entry set is run-constant;
	// only counts move), BeforeUOW in [1, UOWs-1].
	Scale []elastic.ScaleStep
	// Pred, when non-nil, is a near-storage pushdown predicate: every
	// conformance buffer stands in for a chunk whose summary is a pure hash
	// of its identity (synthSummary), and each source evaluates the real
	// dataset predicate against that summary before emitting — matching
	// identities flow, the rest are recorded as pruned. The pruning oracle
	// (checkRun) then requires, on every engine, that pruned and delivered
	// partition the full identity multiset exactly: nothing pruned AND
	// delivered, nothing silently dropped. QueueCap is sized from the
	// UNPRUNED totals (the generator draws Pred last), so it stays safe.
	Pred *dataset.Predicate
	// Fused names transforms the engines run fused into their producer
	// (core.Fuse) instead of as filters of their own: each has exactly one
	// input stream, which becomes an in-memory hand-off inside the copies of
	// the filter that writes it, and its own placement is ignored. Fusion
	// moves where a transform runs, never what anyone receives, so a fused
	// run is checked against the UNFUSED model's deliveries (checkFused).
	Fused []string
	// Warm runs the dist engine on warm control links: a throwaway round
	// of the same spec on the same workers leaves its links in a dist.Pool,
	// and the checked round sets every host up on them. The other engines
	// and the oracles are unchanged; fault-mode runs (CheckFaults) ignore
	// it.
	Warm bool
}

// fused reports whether the named filter runs fused into its producer.
func (s *Spec) fused(name string) bool { return slices.Contains(s.Fused, name) }

// fusable reports whether the named filter may be listed in Fused: a
// transform with exactly one input stream and no scale step (fused, it has
// no copies of its own to scale).
func (s *Spec) fusable(name string) bool {
	f := s.filter(name)
	return f != nil && f.Role == RoleTransform && len(s.inputsOf(name)) == 1 &&
		!slices.ContainsFunc(s.Scale, func(st elastic.ScaleStep) bool { return st.Filter == name })
}

// carrier returns the filter whose copies run the named one: itself, or for
// a fused transform the carrier of its input's producer.
func (s *Spec) carrier(name string) string {
	for s.fused(name) {
		name = s.inputsOf(name)[0].From
	}
	return name
}

// filter returns the named filter spec, or nil.
func (s *Spec) filter(name string) *Filter {
	for i := range s.Filters {
		if s.Filters[i].Name == name {
			return &s.Filters[i]
		}
	}
	return nil
}

// entriesOf returns the placement entries for a filter, in spec order —
// the copy-set target order every engine uses.
func (s *Spec) entriesOf(filter string) []Place {
	var out []Place
	for _, p := range s.Placement {
		if p.Filter == filter {
			out = append(out, p)
		}
	}
	return out
}

// totalCopies returns the number of transparent copies of a filter.
func (s *Spec) totalCopies(filter string) int {
	n := 0
	for _, p := range s.Placement {
		if p.Filter == filter {
			n += p.Copies
		}
	}
	return n
}

// inputsOf / outputsOf list a filter's streams in spec order.
func (s *Spec) inputsOf(filter string) []Stream {
	var out []Stream
	for _, st := range s.Streams {
		if st.To == filter {
			out = append(out, st)
		}
	}
	return out
}

func (s *Spec) outputsOf(filter string) []Stream {
	var out []Stream
	for _, st := range s.Streams {
		if st.From == filter {
			out = append(out, st)
		}
	}
	return out
}

// hostNames returns the spec's host names in order.
func (s *Spec) hostNames() []string {
	out := make([]string, len(s.Hosts))
	for i, h := range s.Hosts {
		out[i] = h.Name
	}
	return out
}

// Clone deep-copies the spec (shrinking mutates candidates freely).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Filters = append([]Filter(nil), s.Filters...)
	c.Streams = append([]Stream(nil), s.Streams...)
	c.Placement = append([]Place(nil), s.Placement...)
	c.Hosts = append([]Host(nil), s.Hosts...)
	c.Scale = append([]elastic.ScaleStep(nil), s.Scale...)
	c.Fused = append([]string(nil), s.Fused...)
	if s.Pred != nil {
		p := *s.Pred
		if p.Iso != nil {
			r := *p.Iso
			p.Iso = &r
		}
		if p.Box != nil {
			b := *p.Box
			p.Box = &b
		}
		c.Pred = &p
	}
	return &c
}

// effectiveSpec returns the spec with the placement every engine runs for
// unit of work u (scale steps with BeforeUOW <= u applied, later steps
// winning). With no scale steps it returns s itself.
func (s *Spec) effectiveSpec(u int) *Spec {
	due := false
	for _, step := range s.Scale {
		if step.BeforeUOW <= u {
			due = true
			break
		}
	}
	if !due {
		return s
	}
	base := make([]elastic.Entry, len(s.Placement))
	for i, p := range s.Placement {
		base[i] = elastic.Entry{Filter: p.Filter, Host: p.Host, Copies: p.Copies}
	}
	eff := elastic.EffectivePlacement(base, s.Scale, u)
	c := s.Clone()
	c.Placement = make([]Place, len(eff))
	for i, e := range eff {
		c.Placement[i] = Place{Filter: e.Filter, Host: e.Host, Copies: e.Copies}
	}
	return c
}

// Validate checks the spec is runnable: the graph must be valid under the
// engine-neutral rules (core.Graph.Validate), every filter placed, every
// policy known, and every count positive.
func (s *Spec) Validate() error {
	if len(s.Filters) == 0 {
		return fmt.Errorf("conformance: spec has no filters")
	}
	if s.UOWs < 1 {
		return fmt.Errorf("conformance: UOWs must be >= 1, got %d", s.UOWs)
	}
	if s.QueueCap < 1 {
		return fmt.Errorf("conformance: QueueCap must be >= 1, got %d", s.QueueCap)
	}
	seen := map[string]bool{}
	for _, f := range s.Filters {
		if seen[f.Name] {
			return fmt.Errorf("conformance: duplicate filter %q", f.Name)
		}
		seen[f.Name] = true
		if f.Role == RoleSource && f.Emit < 1 {
			return fmt.Errorf("conformance: source %q emits %d buffers", f.Name, f.Emit)
		}
	}
	hosts := map[string]bool{}
	for _, h := range s.Hosts {
		if hosts[h.Name] {
			return fmt.Errorf("conformance: duplicate host %q", h.Name)
		}
		hosts[h.Name] = true
	}
	for _, st := range s.Streams {
		if core.PolicyByName(st.Policy) == nil {
			return fmt.Errorf("conformance: stream %s: unknown policy %q", st.Name, st.Policy)
		}
		if st.Wire > WireFloats {
			return fmt.Errorf("conformance: stream %s: unknown wire type %d", st.Name, st.Wire)
		}
	}
	for _, p := range s.Placement {
		if s.filter(p.Filter) == nil {
			return fmt.Errorf("conformance: placement for unknown filter %q", p.Filter)
		}
		if !hosts[p.Host] {
			return fmt.Errorf("conformance: placement on unknown host %q", p.Host)
		}
		if p.Copies < 1 {
			return fmt.Errorf("conformance: filter %q on %q has %d copies", p.Filter, p.Host, p.Copies)
		}
	}
	entryCopies := map[[2]string]bool{}
	for _, p := range s.Placement {
		entryCopies[[2]string{p.Filter, p.Host}] = true
	}
	for _, step := range s.Scale {
		f := s.filter(step.Filter)
		if f == nil {
			return fmt.Errorf("conformance: scale step for unknown filter %q", step.Filter)
		}
		if f.Role == RoleSource {
			return fmt.Errorf("conformance: scale step for source %q (source copy counts define the identity multiset)", step.Filter)
		}
		if step.BeforeUOW < 1 || step.BeforeUOW >= s.UOWs {
			return fmt.Errorf("conformance: scale step for %q at boundary %d, want 1..%d", step.Filter, step.BeforeUOW, s.UOWs-1)
		}
		if !entryCopies[[2]string{step.Filter, step.Host}] {
			return fmt.Errorf("conformance: scale step for %q on %q has no base placement entry", step.Filter, step.Host)
		}
		if step.Copies < 1 {
			return fmt.Errorf("conformance: scale step for %q on %q sets %d copies, want >= 1", step.Filter, step.Host, step.Copies)
		}
	}
	for _, name := range s.Fused {
		if !s.fusable(name) {
			return fmt.Errorf("conformance: fused %q is not a single-input transform free of scale steps", name)
		}
	}
	// The engine-neutral graph rules (unique streams, known endpoints,
	// acyclicity) and full placement, checked exactly the way every engine
	// will check them.
	g := core.NewGraph()
	for _, f := range s.Filters {
		g.AddFilter(f.Name, func() core.Filter { return nil })
	}
	for _, st := range s.Streams {
		g.Connect(st.From, st.To, st.Name)
	}
	if err := g.Validate(); err != nil {
		return err
	}
	pl := core.NewPlacement()
	for _, p := range s.Placement {
		pl.Place(p.Filter, p.Host, p.Copies)
	}
	return pl.Validate(g)
}

// String renders a compact, reproducible description — the form printed in
// failure reports and shrink traces.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec(seed=%d uows=%d qcap=%d", s.Seed, s.UOWs, s.QueueCap)
	if s.Pred != nil {
		fmt.Fprintf(&b, " pred=%s", s.Pred)
	}
	if len(s.Fused) > 0 {
		fmt.Fprintf(&b, " fused=%v", s.Fused)
	}
	if s.Warm {
		b.WriteString(" warm")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  hosts:")
	for _, h := range s.Hosts {
		fmt.Fprintf(&b, " %s(x%g)", h.Name, h.Speed)
	}
	b.WriteString("\n")
	for _, f := range s.Filters {
		fmt.Fprintf(&b, "  filter %-4s %s", f.Name, f.Role)
		if f.Role == RoleSource {
			fmt.Fprintf(&b, " emit=%d", f.Emit)
		}
		fmt.Fprintf(&b, " @")
		for _, p := range s.entriesOf(f.Name) {
			fmt.Fprintf(&b, " %s:%d", p.Host, p.Copies)
		}
		b.WriteString("\n")
	}
	for _, st := range s.Streams {
		fmt.Fprintf(&b, "  stream %-4s %s -> %s  policy=%s wire=%s\n", st.Name, st.From, st.To, st.Policy, st.Wire)
	}
	for _, step := range s.Scale {
		fmt.Fprintf(&b, "  scale  %-4s %s:%d before uow %d\n", step.Filter, step.Host, step.Copies, step.BeforeUOW)
	}
	return b.String()
}

// GenConfig bounds the generator. The zero value selects the defaults in
// parentheses — sized so a -short run of dozens of seeds on all three
// engines (dist included) finishes in seconds.
type GenConfig struct {
	MaxHosts   int      // distinct hosts (3)
	MaxSources int      // source filters (2)
	MaxMids    int      // transform filters, may be 0 (2)
	MaxSinks   int      // sink filters (2)
	MaxCopies  int      // transparent copies per placement entry (3)
	MaxEmit    int      // buffers per source copy per UOW per stream (10)
	MaxUOWs    int      // units of work (2)
	Policies   []string // policy pool (RR, WRR, DD, DD/2, DD/4)
	// Elastic seeds a runtime scale schedule into every generated spec: at
	// least three units of work, one guaranteed scale-up before UOW 1 and
	// one guaranteed scale-down before UOW 2 on a non-source filter's
	// existing placement entry. All elastic draws happen after every base
	// draw, so a seed's base pipeline is identical with the flag on or off.
	Elastic bool
	// Pushdown seeds a near-storage pruning predicate (Spec.Pred) into
	// every generated spec: a random iso range evaluated by sources against
	// each identity's synthetic chunk summary. The predicate draws happen
	// strictly after every other draw (the same seed-stability rule as
	// Elastic), so a seed's base pipeline is identical with the flag on or
	// off.
	Pushdown bool
	// Fused fuses transforms into their producers (Spec.Fused): every
	// eligible transform — exactly one input stream, no scale step — is
	// drawn with probability 1/2, and at least one is taken when any is
	// eligible. The draws come after even the pushdown draws, so a seed's
	// base pipeline is identical with the flag on or off.
	Fused bool
	// Warm sets Spec.Warm. It is taken last and draws nothing, so a seed's
	// pipeline is identical with the flag on or off.
	Warm bool
}

func (c GenConfig) withDefaults() GenConfig {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.MaxHosts, 3)
	def(&c.MaxSources, 2)
	def(&c.MaxMids, 3) // 0..2 transforms: Intn(MaxMids)
	def(&c.MaxSinks, 2)
	def(&c.MaxCopies, 3)
	def(&c.MaxEmit, 10)
	def(&c.MaxUOWs, 2)
	if len(c.Policies) == 0 {
		c.Policies = []string{"RR", "WRR", "DD", "DD/2", "DD/4"}
	}
	return c
}

var hostSpeeds = []float64{0.5, 1, 2}

// Generate derives a valid Spec from a seed. The construction is layered —
// filters are indexed sources < transforms < sinks and streams only flow
// from lower to higher index — so every generated graph is acyclic by
// construction, and Validate holds for every seed.
func Generate(seed int64, cfg GenConfig) *Spec {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	s := &Spec{Seed: seed, UOWs: 1 + rng.Intn(cfg.MaxUOWs)}

	nHosts := 1 + rng.Intn(cfg.MaxHosts)
	for i := 0; i < nHosts; i++ {
		s.Hosts = append(s.Hosts, Host{
			Name:  fmt.Sprintf("h%d", i),
			Speed: hostSpeeds[rng.Intn(len(hostSpeeds))],
		})
	}

	nSrc := 1 + rng.Intn(cfg.MaxSources)
	nMid := rng.Intn(cfg.MaxMids)
	nSink := 1 + rng.Intn(cfg.MaxSinks)
	for i := 0; i < nSrc; i++ {
		s.Filters = append(s.Filters, Filter{
			Name: fmt.Sprintf("F%d", len(s.Filters)), Role: RoleSource,
			Emit: 2 + rng.Intn(cfg.MaxEmit-1),
		})
	}
	for i := 0; i < nMid; i++ {
		s.Filters = append(s.Filters, Filter{Name: fmt.Sprintf("F%d", len(s.Filters)), Role: RoleTransform})
	}
	for i := 0; i < nSink; i++ {
		s.Filters = append(s.Filters, Filter{Name: fmt.Sprintf("F%d", len(s.Filters)), Role: RoleSink})
	}

	// Streams: every transform and sink picks 1-2 distinct producers among
	// the lower-indexed sources and transforms (fan-in); afterwards, any
	// source or transform left without an output stream is wired to a
	// random higher-indexed consumer (so no filter is dead weight).
	addStream := func(from, to int) {
		s.Streams = append(s.Streams, Stream{
			Name:   fmt.Sprintf("s%d", len(s.Streams)),
			From:   s.Filters[from].Name,
			To:     s.Filters[to].Name,
			Policy: cfg.Policies[rng.Intn(len(cfg.Policies))],
			Wire:   Wire(rng.Intn(3)),
		})
	}
	hasEdge := func(from, to int) bool {
		for _, st := range s.Streams {
			if st.From == s.Filters[from].Name && st.To == s.Filters[to].Name {
				return true
			}
		}
		return false
	}
	for to := nSrc; to < len(s.Filters); to++ {
		eligible := to // producers are indices < to among sources+transforms
		if eligible > nSrc+nMid {
			eligible = nSrc + nMid
		}
		wants := 1 + rng.Intn(2)
		if wants > eligible {
			wants = eligible
		}
		for _, from := range rng.Perm(eligible)[:wants] {
			addStream(from, to)
		}
	}
	for from := 0; from < nSrc+nMid; from++ {
		if len(s.outputsOf(s.Filters[from].Name)) > 0 {
			continue
		}
		// Wire to a random consumer after this filter; sinks always exist.
		lo := from + 1
		if lo < nSrc {
			lo = nSrc
		}
		to := lo + rng.Intn(len(s.Filters)-lo)
		if !hasEdge(from, to) {
			addStream(from, to)
		}
	}

	// Placement: 1..nHosts distinct hosts per filter, 1..MaxCopies each.
	for _, f := range s.Filters {
		n := 1 + rng.Intn(nHosts)
		for _, hi := range rng.Perm(nHosts)[:n] {
			s.Placement = append(s.Placement, Place{
				Filter: f.Name, Host: s.Hosts[hi].Name, Copies: 1 + rng.Intn(cfg.MaxCopies),
			})
		}
	}
	s.normalizeHosts()

	// Queue capacity above the largest per-stream per-UOW buffer count, so
	// a whole stream fits in any single copy-set queue and sequential
	// draining of inputs can never deadlock a producer (see filters.go).
	max := 0
	for _, total := range streamTotals(s) {
		if total > max {
			max = total
		}
	}
	s.QueueCap = max + 4
	if s.QueueCap < 8 {
		s.QueueCap = 8
	}

	// The last base draw once picked a peer transport, which no longer
	// exists; it is still consumed, so every draw below sees the rng state
	// it always did and historical seeds reproduce their exact pipelines.
	_ = rng.Intn(2)

	// Elastic draws come strictly after every base draw: the base pipeline
	// of a seed is identical whether or not cfg.Elastic is set.
	if cfg.Elastic {
		if s.UOWs < 3 {
			s.UOWs = 3 // room for a scale-up boundary and a scale-down boundary
		}
		// Candidates: placement entries of non-source filters (sinks always
		// exist, so there is always at least one).
		var cands []Place
		for _, p := range s.Placement {
			if s.filter(p.Filter).Role != RoleSource {
				cands = append(cands, p)
			}
		}
		e := cands[rng.Intn(len(cands))]
		up := e.Copies + 1 + rng.Intn(2)
		down := 1 + rng.Intn(e.Copies) // <= base < up: a strict scale-down
		s.Scale = []elastic.ScaleStep{
			{BeforeUOW: 1, Filter: e.Filter, Host: e.Host, Copies: up},
			{BeforeUOW: 2, Filter: e.Filter, Host: e.Host, Copies: down},
		}
		// Sometimes a second set scales too, on another entry.
		if len(cands) > 1 && rng.Intn(2) == 0 {
			e2 := cands[rng.Intn(len(cands))]
			if e2 != e {
				s.Scale = append(s.Scale, elastic.ScaleStep{
					BeforeUOW: 1 + rng.Intn(s.UOWs-1), Filter: e2.Filter, Host: e2.Host,
					Copies: 1 + rng.Intn(e2.Copies+1),
				})
			}
		}
	}

	// Pushdown draws come last of all (the Elastic seed-stability rule
	// again). Identity summaries have Min uniform in [0,1) and Max in
	// [Min, Min+1), so an iso range with Lo in [0,1.2) and a short width
	// sweeps the whole spectrum: seeds where everything survives, seeds
	// where almost everything prunes, and plenty of genuine partitions.
	if cfg.Pushdown {
		lo := float32(rng.Float64() * 1.2)
		s.Pred = &dataset.Predicate{Iso: &dataset.IsoRange{Lo: lo, Hi: lo + float32(rng.Float64()*0.6)}}
	}

	// Fusion draws come after everything else (the seed-stability rule once
	// more). Chains arise on their own: a fused transform whose producer is
	// also fused nests the fusions.
	if cfg.Fused {
		var eligible []string
		for _, f := range s.Filters {
			if s.fusable(f.Name) {
				eligible = append(eligible, f.Name)
			}
		}
		for _, name := range eligible {
			if rng.Intn(2) == 0 {
				s.Fused = append(s.Fused, name)
			}
		}
		if len(s.Fused) == 0 && len(eligible) > 0 {
			s.Fused = []string{eligible[rng.Intn(len(eligible))]}
		}
	}
	s.Warm = cfg.Warm
	return s
}

// normalizeHosts drops hosts no placement references (shrinking removes
// placements; dist must not start workers for unused hosts).
func (s *Spec) normalizeHosts() {
	used := map[string]bool{}
	for _, p := range s.Placement {
		used[p.Host] = true
	}
	var hosts []Host
	for _, h := range s.Hosts {
		if used[h.Name] {
			hosts = append(hosts, h)
		}
	}
	s.Hosts = hosts
}

// survives reports whether the pushdown predicate keeps the identity: the
// very dataset.Predicate.MatchSummary call the source filters run, against
// the identity's synthetic summary. No predicate keeps everything.
func (s *Spec) survives(id string) bool {
	return s.Pred == nil || s.Pred.MatchSummary(synthSummary(id))
}

// sourceWrites returns how many buffers each copy of a source emits per UOW
// per output stream after pushdown pruning (identities encode the copy, so
// different copies may prune different counts).
func sourceWrites(s *Spec, f Filter) []int {
	w := make([]int, s.totalCopies(f.Name))
	for c := range w {
		if s.Pred == nil {
			w[c] = f.Emit
			continue
		}
		for i := 0; i < f.Emit; i++ {
			if s.survives(fmt.Sprintf("%s.%d#%d", f.Name, c, i)) {
				w[c]++
			}
		}
	}
	return w
}

// streamTotals returns each stream's per-UOW buffer count, propagated
// through the DAG: sources write Emit x copies (minus anything the pushdown
// predicate prunes), transforms forward every buffer they receive to every
// output. Totals are exact on every engine regardless of policy —
// conservation is scheduling-independent. The generator calls this before
// drawing Pred, so QueueCap is sized from the unpruned totals.
func streamTotals(s *Spec) map[string]int {
	totals := make(map[string]int, len(s.Streams))
	recv := map[string]int{}
	for _, f := range s.Filters { // spec order is topological by construction
		var writes int
		switch f.Role {
		case RoleSource:
			for _, n := range sourceWrites(s, f) {
				writes += n
			}
		default:
			writes = recv[f.Name]
		}
		for _, st := range s.outputsOf(f.Name) {
			totals[st.Name] = writes
			recv[st.To] += writes
		}
	}
	return totals
}
