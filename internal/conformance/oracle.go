package conformance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"datacutter/internal/core"
	"datacutter/internal/exec"
)

// The oracle model predicts, for a Spec, everything that must hold on
// every engine:
//
//   - per-stream buffer totals — exact on any engine for any policy, by
//     conservation (sources emit a fixed count per copy; transforms
//     forward everything to everything);
//   - the delivered-identity multiset per consumer per unit of work —
//     also exact for any policy, because identities encode provenance and
//     transparent copies must not change what is delivered, only where;
//   - per-target-host delivery counts — exact whenever the writes feeding
//     a stream are per-copy deterministic and the policy ignores acks
//     (RR/WRR): the model replays the very exec.Policy writer the engines
//     run (exec.ReplayCounts), so the expected split is the production
//     pick sequence, not a re-implementation;
//   - acknowledgment-count bounds for the demand-driven family;
//   - end-of-work exactly once per consumer copy per input per UOW.
//
// Exactness propagates: a transform's own writes are per-copy
// deterministic only if every input stream's per-copy-set split is exact
// AND each of its placement entries holds a single copy (buffers route to
// a copy set; with >1 copies per entry, which copy consumed — and so which
// copy's writers fire — depends on scheduling).
type model struct {
	spec   *Spec
	totals map[string]int            // buffers per stream per UOW (always exact)
	ids    map[string]map[string]int // identity multiset per stream per UOW (always exact)
	// eff is the effective spec per unit of work: the base spec with the
	// scale schedule applied up to that boundary. Without scale steps every
	// entry is the base spec itself. Identities and totals are UOW-invariant
	// even under scaling (the harness only scales non-source filters, and
	// transform identities do not encode copy indices), but per-host splits
	// and end-of-work copy counts follow the effective placement.
	eff []*Spec
	// perHost is the exact per-target-host split over the WHOLE RUN (summed
	// across each UOW's effective placement), nil for streams where only
	// conservation holds (DD family, non-deterministic producer writes, or
	// any UOW in which the split went inexact).
	perHost map[string]map[string]int64
	// ackLo/ackHi bound Stats.Acks per stream over the whole run.
	ackLo, ackHi map[string]int64
	// remoteIn counts, per host, the exactly-known data frames per UOW
	// arriving from other hosts — used to pick kill victims in fault mode.
	remoteIn map[string]int
	// prunedIDs is, per source filter, the identity multiset the pushdown
	// predicate prunes per UOW (always exact: the predicate is a pure
	// function of the identity, and source copy counts never scale). Empty
	// when the spec has no predicate.
	prunedIDs map[string]map[string]int
}

// ddEvery returns the ack batch size of a policy name (1 for plain DD)
// and whether the policy is ack-driven at all.
func ddEvery(name string) (int, bool) {
	if name == "DD" {
		return 1, true
	}
	if rest, ok := strings.CutPrefix(name, "DD/"); ok {
		k, err := strconv.Atoi(rest)
		if err == nil && k >= 1 {
			return k, true
		}
	}
	return 0, false
}

// targetInfos expands a consumer's placement entries into the TargetInfo
// slice every engine hands the policy (one entry per copy set, spec
// order). Local is irrelevant for the ack-free policies the model replays.
func targetInfos(s *Spec, consumer string) []core.TargetInfo {
	entries := s.entriesOf(consumer)
	out := make([]core.TargetInfo, len(entries))
	for i, e := range entries {
		out[i] = core.TargetInfo{Host: e.Host, Copies: e.Copies}
	}
	return out
}

// buildModel composes the whole-run model from one single-UOW model per
// unit of work: each UOW's effective placement (scale schedule applied) is
// replayed independently — matching the engines, which rebuild writers
// every UOW — and the per-host splits and ack bounds accumulate. A stream's
// split is exact only if it is exact in EVERY UOW.
func buildModel(s *Spec) *model {
	m := buildUOW(s)
	m.eff = make([]*Spec, s.UOWs)
	perHost := map[string]map[string]int64{}
	ackLo := map[string]int64{}
	ackHi := map[string]int64{}
	inexact := map[string]bool{}
	for u := 0; u < s.UOWs; u++ {
		m.eff[u] = s.effectiveSpec(u)
		um := m
		if m.eff[u] != s {
			um = buildUOW(m.eff[u])
		}
		for _, st := range s.Streams {
			ackLo[st.Name] += um.ackLo[st.Name]
			ackHi[st.Name] += um.ackHi[st.Name]
			if ph := um.perHost[st.Name]; ph != nil && !inexact[st.Name] {
				acc := perHost[st.Name]
				if acc == nil {
					acc = map[string]int64{}
					perHost[st.Name] = acc
				}
				for h, n := range ph {
					acc[h] += n
				}
			} else {
				inexact[st.Name] = true
				delete(perHost, st.Name)
			}
		}
	}
	m.perHost, m.ackLo, m.ackHi = perHost, ackLo, ackHi
	return m
}

// buildUOW builds the single-unit-of-work model for a spec: per-stream
// totals, identity multisets, exact per-host splits where the writes are
// per-copy deterministic, per-UOW ack bounds, and remote-arrival counts.
func buildUOW(s *Spec) *model {
	m := &model{
		spec:      s,
		totals:    streamTotals(s),
		ids:       map[string]map[string]int{},
		perHost:   map[string]map[string]int64{},
		ackLo:     map[string]int64{},
		ackHi:     map[string]int64{},
		remoteIn:  map[string]int{},
		prunedIDs: map[string]map[string]int{},
	}
	u := int64(1)

	// copyWrites[f][c] is how many buffers copy c of f writes on EACH of
	// its output streams per UOW; nil when scheduling-dependent.
	copyWrites := map[string][]int{}
	// recvByEntry[f][e] accumulates exact arrivals at placement entry e of
	// consumer f; recvExact[f] goes false the moment any input is inexact.
	recvByEntry := map[string][]int{}
	recvExact := map[string]bool{}
	recvIDs := map[string]map[string]int{}
	for _, f := range s.Filters {
		recvByEntry[f.Name] = make([]int, len(s.entriesOf(f.Name)))
		recvExact[f.Name] = true
		recvIDs[f.Name] = map[string]int{}
	}

	for _, f := range s.Filters { // spec order is topological
		// What this filter writes per copy per output stream.
		switch f.Role {
		case RoleSource:
			// Per-copy survivor counts: the pushdown predicate (when set)
			// prunes a deterministic subset of each copy's identities, so
			// copies may write different counts — the policy replay below
			// consumes the per-copy numbers.
			copyWrites[f.Name] = sourceWrites(s, f)
		case RoleTransform:
			exact := recvExact[f.Name]
			for _, e := range s.entriesOf(f.Name) {
				if e.Copies != 1 {
					exact = false
				}
			}
			if exact {
				copyWrites[f.Name] = recvByEntry[f.Name] // entry == copy
			}
		}

		// This filter's output identities per UOW.
		var outIDs map[string]int
		switch f.Role {
		case RoleSource:
			outIDs = map[string]int{}
			for c := 0; c < s.totalCopies(f.Name); c++ {
				for i := 0; i < f.Emit; i++ {
					id := fmt.Sprintf("%s.%d#%d", f.Name, c, i)
					if !s.survives(id) {
						if m.prunedIDs[f.Name] == nil {
							m.prunedIDs[f.Name] = map[string]int{}
						}
						m.prunedIDs[f.Name][id]++
						continue
					}
					outIDs[id]++
				}
			}
		case RoleTransform:
			outIDs = map[string]int{}
			for id, n := range recvIDs[f.Name] {
				outIDs[id+">"+f.Name] += n
			}
		}

		for _, st := range s.outputsOf(f.Name) {
			m.ids[st.Name] = outIDs
			for id, n := range outIDs {
				recvIDs[st.To][id] += n
			}
			total := int64(m.totals[st.Name])
			if k, dd := ddEvery(st.Policy); dd {
				m.ackLo[st.Name] = u * ((total + int64(k) - 1) / int64(k))
				m.ackHi[st.Name] = u * total
				recvExact[st.To] = false
				continue
			}
			m.ackLo[st.Name], m.ackHi[st.Name] = 0, 0
			writes := copyWrites[f.Name]
			if writes == nil {
				recvExact[st.To] = false
				continue
			}
			// Replay the production writer per producing copy (each copy
			// owns a fresh writer per stream on every engine).
			pol := core.PolicyByName(st.Policy)
			targets := targetInfos(s, st.To)
			perEntry := make([]int, len(targets))
			hostOf := copyHosts(s, f.Name)
			for c, n := range writes {
				for ti, cnt := range exec.ReplayCounts(pol, targets, n) {
					perEntry[ti] += cnt
					if targets[ti].Host != hostOf[c] {
						m.remoteIn[targets[ti].Host] += cnt
					}
				}
			}
			ph := map[string]int64{}
			for ti, cnt := range perEntry {
				if cnt != 0 {
					ph[targets[ti].Host] += int64(cnt)
				}
				recvByEntry[st.To][ti] += cnt
			}
			m.perHost[st.Name] = ph
		}
	}
	return m
}

// copyHosts returns the host of each global copy index of a filter
// (placement entries expand in order on every engine).
func copyHosts(s *Spec, filter string) []string {
	var out []string
	for _, e := range s.entriesOf(filter) {
		for c := 0; c < e.Copies; c++ {
			out = append(out, e.Host)
		}
	}
	return out
}

// expectedDeliveries builds the full delivery multiset the Recorder must
// hold after a clean run: every stream's identity multiset, at the
// stream's consumer, once per unit of work.
func (m *model) expectedDeliveries() map[DeliveryKey]int {
	out := map[DeliveryKey]int{}
	for _, st := range m.spec.Streams {
		for u := 0; u < m.spec.UOWs; u++ {
			for id, n := range m.ids[st.Name] {
				out[DeliveryKey{st.To, st.Name, u, id}] = n
			}
		}
	}
	return out
}

// expectedPruned builds the full pruned multiset the Recorder must hold
// after a clean run: each source's pruned identity set, once per unit of
// work (the predicate is UOW-invariant and source copy counts never scale).
func (m *model) expectedPruned() map[PruneKey]int {
	out := map[PruneKey]int{}
	for src, ids := range m.prunedIDs {
		for u := 0; u < m.spec.UOWs; u++ {
			for id, n := range ids {
				out[PruneKey{src, u, id}] = n
			}
		}
	}
	return out
}

// expectedEOW: every consumer copy sees end-of-work exactly once per input
// stream per unit of work — counted against that UOW's effective placement
// when a scale schedule is in force.
func (m *model) expectedEOW() map[EOWKey]int {
	out := map[EOWKey]int{}
	for _, st := range m.spec.Streams {
		for u := 0; u < m.spec.UOWs; u++ {
			eff := m.spec
			if u < len(m.eff) && m.eff[u] != nil {
				eff = m.eff[u]
			}
			out[EOWKey{st.To, st.Name, u}] = eff.totalCopies(st.To)
		}
	}
	return out
}

// checkRun diffs one engine's run against the model. It returns a list of
// human-readable oracle violations (empty = conformant). relaxed selects
// the fault-mode oracle: delivery becomes at-least-once (every expected
// identity delivered, nothing unexpected, end-of-work at least once per
// copy) and the scheduling-sensitive stats oracles are skipped, because
// retried units of work legitimately re-deliver.
func checkRun(m *model, st *core.Stats, rec *Recorder, relaxed bool) []string {
	var v []string
	u := int64(m.spec.UOWs)

	if !relaxed {
		for _, sp := range m.spec.Streams {
			ss := st.Streams[sp.Name]
			if ss == nil {
				v = append(v, fmt.Sprintf("stream %s: no stats", sp.Name))
				continue
			}
			want := u * int64(m.totals[sp.Name])
			if ss.Buffers != want {
				v = append(v, fmt.Sprintf("stream %s: %d buffers, want %d", sp.Name, ss.Buffers, want))
			}
			var sum int64
			for _, n := range ss.PerTargetHost {
				sum += n
			}
			if sum != want {
				v = append(v, fmt.Sprintf("stream %s: per-host deliveries sum to %d, want %d (%v)",
					sp.Name, sum, want, ss.PerTargetHost))
			}
			if wantPer := m.perHost[sp.Name]; wantPer != nil {
				if !equalHostCounts(ss.PerTargetHost, wantPer) {
					v = append(v, fmt.Sprintf("stream %s (%s): per-host split %v, want %v",
						sp.Name, sp.Policy, ss.PerTargetHost, wantPer))
				}
			}
			if lo, hi := m.ackLo[sp.Name], m.ackHi[sp.Name]; ss.Acks < lo || ss.Acks > hi {
				v = append(v, fmt.Sprintf("stream %s (%s): %d acks, want %d..%d",
					sp.Name, sp.Policy, ss.Acks, lo, hi))
			}
		}
	}

	gotDel := rec.Deliveries()
	v = append(v, diffCounts("delivery", m.expectedDeliveries(), gotDel, relaxed)...)

	// Pushdown oracles. First the pruned multiset itself: exactly what the
	// predicate dictates (at-least-once under the relaxed fault oracle,
	// where a retried UOW legitimately re-prunes), and never an identity
	// the model expects to flow. Then conservation, the soundness property
	// near-storage pruning stands on: on every stream leaving a source,
	// pruned and delivered must PARTITION the full identity multiset — an
	// identity in both was pruned yet leaked downstream, an identity in
	// neither was silently dropped without being accounted as pruned.
	gotPruned := rec.Pruned()
	v = append(v, diffCounts("prune", m.expectedPruned(), gotPruned, relaxed)...)
	if m.spec.Pred != nil {
		for _, sp := range m.spec.Streams {
			if m.spec.filter(sp.From).Role != RoleSource {
				continue
			}
			for u := 0; u < m.spec.UOWs; u++ {
				check := func(id string) {
					del := gotDel[DeliveryKey{sp.To, sp.Name, u, id}]
					pr := gotPruned[PruneKey{sp.From, u, id}]
					if del > 0 && pr > 0 {
						v = append(v, fmt.Sprintf("conservation %s uow=%d id=%q: pruned (x%d) AND delivered (x%d)",
							sp.Name, u, id, pr, del))
					}
					if !relaxed && del+pr != 1 {
						v = append(v, fmt.Sprintf("conservation %s uow=%d id=%q: delivered %d + pruned %d, want exactly 1",
							sp.Name, u, id, del, pr))
					}
				}
				for id := range m.ids[sp.Name] {
					check(id)
				}
				for id := range m.prunedIDs[sp.From] {
					check(id)
				}
			}
		}
	}

	v = append(v, diffCounts("end-of-work", m.expectedEOW(), rec.EOW(), relaxed)...)

	sort.Strings(v)
	return v
}

// checkFused diffs a run with fused transforms (Spec.Fused) against the
// model, which describes the UNFUSED pipeline: every consumer — the fused
// transforms too, which record what crosses their in-memory stream — must
// have been delivered exactly the unfused multiset, and the sources must
// have pruned exactly the unfused set. The stats and end-of-work oracles do
// not carry over: a fused stream has no stats row, and a fused transform
// runs in its carrier's copies, not its own.
func checkFused(m *model, rec *Recorder) []string {
	v := diffCounts("delivery", m.expectedDeliveries(), rec.Deliveries(), false)
	v = append(v, diffCounts("prune", m.expectedPruned(), rec.Pruned(), false)...)
	sort.Strings(v)
	return v
}

// diffCounts diffs one recorded multiset against the model's: every
// expected key at its expected count (at least it when relaxed), and no
// key the model does not expect.
func diffCounts[K comparable](what string, want, got map[K]int, relaxed bool) []string {
	var v []string
	atLeast := ""
	if relaxed {
		atLeast = ">= "
	}
	for k, n := range want {
		if g := got[k]; g != n && !(relaxed && g > n) {
			v = append(v, fmt.Sprintf("%s %+v: seen %d times, want %s%d", what, k, g, atLeast, n))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			v = append(v, fmt.Sprintf("unexpected %s %+v (x%d)", what, k, g))
		}
	}
	return v
}

func equalHostCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for h, n := range a {
		if b[h] != n {
			return false
		}
	}
	return true
}
