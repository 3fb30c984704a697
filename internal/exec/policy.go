package exec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TargetInfo describes one consumer copy set (all transparent copies of the
// consumer filter on one host) from the point of view of a particular
// producer copy.
type TargetInfo struct {
	Host   string
	Copies int  // consumer copies on that host
	Local  bool // true if colocated with the producer copy
}

// Policy selects, for each buffer a producer copy writes, which consumer
// copy set receives it. Policies are engine-neutral: the identical
// implementations drive the real goroutine engine (internal/core), the
// simulated cluster engine (internal/simrt), and the distributed TCP engine
// (internal/dist), all through this package's StreamWriter runtime.
//
// The three policies are the ones evaluated in the paper (§2):
//
//   - Round Robin (RR): buffers cycle over copy sets, one per host.
//   - Weighted Round Robin (WRR): cyclic, with each host receiving buffers
//     in proportion to the number of copies it runs.
//   - Demand Driven (DD): consumers acknowledge each buffer as they begin
//     processing it; the producer sends to the copy set with the fewest
//     unacknowledged buffers, preferring a colocated copy set on ties.
type Policy interface {
	// Name returns the short policy name ("RR", "WRR", "DD").
	Name() string
	// NewWriter creates per-producer-copy state for one stream with the
	// given targets (one per consumer copy set, in placement order).
	NewWriter(targets []TargetInfo) Writer
}

// Writer is per-(producer copy, stream) policy state.
type Writer interface {
	// Pick returns the index into the targets slice that should receive
	// the next buffer. unacked[i] is the number of buffers sent to target
	// i that have not yet been acknowledged; it is maintained by the
	// engine and meaningful only when WantsAcks is true.
	Pick(unacked []int) int
	// WantsAcks reports whether the engine must have consumers acknowledge
	// buffers (the DD feedback channel). RR and WRR are the paper's
	// "zero overhead" policies and return false.
	WantsAcks() bool
}

// ---- Round Robin ----

type rrPolicy struct{}

// RoundRobin returns the RR policy: cyclic distribution of buffers across
// copy sets, one buffer per host per cycle.
func RoundRobin() Policy { return rrPolicy{} }

func (rrPolicy) Name() string { return "RR" }
func (rrPolicy) NewWriter(targets []TargetInfo) Writer {
	return &rrWriter{n: len(targets)}
}

type rrWriter struct{ next, n int }

func (w *rrWriter) Pick([]int) int {
	i := w.next
	w.next = (w.next + 1) % w.n
	return i
}
func (w *rrWriter) WantsAcks() bool { return false }

// ---- Weighted Round Robin ----

type wrrPolicy struct{}

// WeightedRoundRobin returns the WRR policy: cyclic distribution where each
// host receives buffers in linear proportion to the number of consumer
// copies it runs (paper §2: "one per filter on each host").
func WeightedRoundRobin() Policy { return wrrPolicy{} }

func (wrrPolicy) Name() string { return "WRR" }
func (wrrPolicy) NewWriter(targets []TargetInfo) Writer {
	// Expand the weighted cycle; interleave rather than blocking so hosts
	// alternate even within one cycle (smooth WRR): on each step pick the
	// target with the highest (weight - sent*cycleLen/weight) — implemented
	// as the classic smooth weighted round-robin.
	w := &wrrWriter{}
	for _, t := range targets {
		c := t.Copies
		if c < 1 {
			c = 1
		}
		w.weight = append(w.weight, c)
		w.current = append(w.current, 0)
		w.total += c
	}
	return w
}

// wrrWriter implements smooth weighted round robin: each pick adds weight_i
// to current_i, selects the max, and subtracts the total weight from it.
// Over one cycle of `total` picks every target i is chosen weight_i times,
// with picks spread as evenly as possible.
type wrrWriter struct {
	weight  []int
	current []int
	total   int
}

func (w *wrrWriter) Pick([]int) int {
	best := 0
	for i := range w.current {
		w.current[i] += w.weight[i]
		if w.current[i] > w.current[best] {
			best = i
		}
	}
	w.current[best] -= w.total
	return best
}
func (w *wrrWriter) WantsAcks() bool { return false }

// ---- Demand Driven ----

type ddPolicy struct{}

// DemandDriven returns the DD policy: a sliding-window mechanism based on
// buffer consumption rate. Consumers acknowledge each buffer when they
// dequeue it for processing; the producer sends each new buffer to the copy
// set with the fewest unacknowledged buffers, directing work to consumers
// showing recent good performance. Ties prefer a colocated copy set,
// implicitly accounting for communication cost (paper §2, §4.3).
func DemandDriven() Policy { return ddPolicy{} }

func (ddPolicy) Name() string { return "DD" }
func (ddPolicy) NewWriter(targets []TargetInfo) Writer {
	w := &ddWriter{local: make([]bool, len(targets)), last: len(targets) - 1}
	for i, t := range targets {
		w.local[i] = t.Local
	}
	return w
}

type ddWriter struct {
	local []bool
	last  int // rotation point for fair tie-breaks among remotes
}

// Pick selects the copy set with the fewest unacknowledged buffers. Ties
// prefer a colocated copy set (avoiding network traffic, paper §2); ties
// among remote copy sets rotate cyclically so that, when every consumer is
// saturated (all counts equal), the distribution stays fair instead of
// piling onto the first-listed host.
func (w *ddWriter) Pick(unacked []int) int {
	n := len(unacked)
	min := unacked[0]
	for _, u := range unacked[1:] {
		if u < min {
			min = u
		}
	}
	best := -1
	for i := 1; i <= n; i++ {
		idx := (w.last + i) % n
		if unacked[idx] != min {
			continue
		}
		if w.local[idx] {
			best = idx
			break
		}
		if best == -1 {
			best = idx
		}
	}
	w.last = best
	return best
}
func (w *ddWriter) WantsAcks() bool { return true }

// ---- Demand Driven with batched acknowledgments ----

// AckBatcher is an optional Writer extension: when implemented, consumers
// coalesce acknowledgments, sending one message per AckBatch buffers
// instead of one per buffer. This is the paper's proposed follow-up for
// reducing DD's communication overhead on slow networks (§6: "we plan to
// further investigate methods to reduce the communication overhead in
// DD"): the ack traffic drops k-fold at the price of coarser demand
// information.
type AckBatcher interface {
	// AckBatch returns the coalescing factor (>= 1).
	AckBatch() int
}

type ddBatchedPolicy struct{ k int }

// DemandDrivenBatched returns the DD policy with acknowledgments coalesced
// k-fold.
func DemandDrivenBatched(k int) Policy {
	if k < 1 {
		k = 1
	}
	return ddBatchedPolicy{k: k}
}

func (p ddBatchedPolicy) Name() string { return fmt.Sprintf("DD/%d", p.k) }
func (p ddBatchedPolicy) NewWriter(targets []TargetInfo) Writer {
	w := &ddBatchedWriter{
		ddWriter: DemandDriven().NewWriter(targets).(*ddWriter),
		k:        p.k,
		copies:   make([]int, len(targets)),
	}
	for i, t := range targets {
		c := t.Copies
		if c < 1 {
			c = 1
		}
		w.copies[i] = c
	}
	return w
}

type ddBatchedWriter struct {
	*ddWriter
	k      int
	copies []int
}

func (w *ddBatchedWriter) AckBatch() int { return w.k }

// Pick normalizes outstanding buffers by copy count before comparing:
// with acknowledgments arriving in coarse batches, raw counts would
// systematically under-feed large copy sets (a set of c copies legitimately
// holds c in-flight buffers plus a batch of withheld acks).
func (w *ddBatchedWriter) Pick(unacked []int) int {
	scaled := make([]int, len(unacked))
	for i, u := range unacked {
		scaled[i] = (u + w.copies[i] - 1) / w.copies[i]
	}
	return w.ddWriter.Pick(scaled)
}

// AckBatchOf returns a writer's coalescing factor (1 when unbatched).
func AckBatchOf(w Writer) int {
	if b, ok := w.(AckBatcher); ok {
		if k := b.AckBatch(); k > 1 {
			return k
		}
	}
	return 1
}

// PolicyByName returns the policy for a short name, or nil if unknown.
// "DD/4" selects demand driven with 4-fold batched acknowledgments; the
// batch factor must be a bare positive integer ("DD/0", "DD/-1", "DD/4x",
// and "DD/" are all rejected).
func PolicyByName(name string) Policy {
	switch name {
	case "RR":
		return RoundRobin()
	case "WRR":
		return WeightedRoundRobin()
	case "DD":
		return DemandDriven()
	}
	if rest, ok := strings.CutPrefix(name, "DD/"); ok {
		k, err := strconv.Atoi(rest)
		// Reject non-canonical spellings ("DD/+2", "DD/08") as well as
		// garbage: a policy name appears in flags and wire frames, and a
		// lenient parse would let two spellings of one policy slip past
		// equality checks.
		if err == nil && k >= 1 && rest == strconv.Itoa(k) {
			return DemandDrivenBatched(k)
		}
	}
	return nil
}

// ---- Shared policy configuration ----

// PolicyConfig is the engine-neutral writer-policy configuration shared by
// all three engines: one default policy plus per-stream overrides. The zero
// value selects Round Robin for every stream.
type PolicyConfig struct {
	// Default applies to every stream without an override (RoundRobin when
	// nil).
	Default Policy
	// PerStream overrides the policy for individual streams by name.
	PerStream map[string]Policy
}

// For resolves the policy for a stream: per-stream override first, then the
// default, then Round Robin.
func (c PolicyConfig) For(stream string) Policy {
	if p, ok := c.PerStream[stream]; ok && p != nil {
		return p
	}
	if c.Default != nil {
		return c.Default
	}
	return RoundRobin()
}

// ParsePolicies builds a PolicyConfig from policy names — the single
// parse/validate path for every name-carrying surface (dist Options and its
// setup frame, dcsubmit/dcbench flags). An empty default selects Round
// Robin; any unknown name is an error naming the offending stream.
func ParsePolicies(def string, perStream map[string]string) (PolicyConfig, error) {
	var cfg PolicyConfig
	if def != "" {
		if cfg.Default = PolicyByName(def); cfg.Default == nil {
			return PolicyConfig{}, fmt.Errorf("exec: unknown policy %q", def)
		}
	}
	if len(perStream) > 0 {
		cfg.PerStream = make(map[string]Policy, len(perStream))
		for stream, name := range perStream {
			p := PolicyByName(name)
			if p == nil {
				return PolicyConfig{}, fmt.Errorf("exec: unknown policy %q for stream %q", name, stream)
			}
			cfg.PerStream[stream] = p
		}
	}
	return cfg, nil
}

// ParseStreamPolicies parses a command-line per-stream policy spec of the
// form "stream=POLICY,stream=POLICY" into the name map ParsePolicies (and
// dist.Options.StreamPolicy) accept. Policy names are validated; an empty
// spec yields a nil map.
func ParseStreamPolicies(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		stream, name, ok := strings.Cut(pair, "=")
		if !ok || stream == "" {
			return nil, fmt.Errorf("exec: bad stream policy %q (want stream=POLICY)", pair)
		}
		if PolicyByName(name) == nil {
			return nil, fmt.Errorf("exec: unknown policy %q for stream %q", name, stream)
		}
		if _, dup := out[stream]; dup {
			return nil, fmt.Errorf("exec: duplicate stream %q in policy spec", stream)
		}
		out[stream] = name
	}
	return out, nil
}

// StreamPolicyNames lists a name map's streams sorted, for deterministic
// error messages and logs.
func StreamPolicyNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for s := range m {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}
