package conformance

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/leakcheck"
)

// -conformance.seed reruns (and, on failure, shrinks) a single seed — the
// flag a failure report's reproduction command uses.
var seedFlag = flag.Int64("conformance.seed", -1, "run a single conformance seed instead of the sweep")

func conformanceSeeds() []int64 {
	if *seedFlag >= 0 {
		return []int64{*seedFlag}
	}
	n := 60 // -short still clears the acceptance floor of 50 seeds per engine pair
	if !testing.Short() {
		n = 150
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return seeds
}

// failReport renders a conformance failure: the original violation, the
// shrunk minimal reproduction, and the one-line repro command.
func failReport(t *testing.T, seed int64, fail *Failure, opts Options) {
	t.Helper()
	min, mf := Shrink(fail.Spec, opts, 0)
	shrunk := "shrink could not reproduce the failure (flaky?)"
	if mf != nil {
		shrunk = mf.Error()
	}
	t.Fatalf("conformance violation at seed %d:\n%v\n\nshrunk reproduction (%d filters, %d streams):\n%v\n\nreproduce with:\n  %s",
		seed, fail, len(min.Filters), len(min.Streams), shrunk, ReproCommand(seed))
}

// TestConformance is the differential sweep: every seed's generated
// pipeline must satisfy every oracle on all three engines.
func TestConformance(t *testing.T) {
	for _, seed := range conformanceSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			s := Generate(seed, GenConfig{})
			if fail := Check(s, Options{}); fail != nil {
				failReport(t, seed, fail, Options{})
			}
		})
	}
}

// TestConformanceFaults sweeps the relaxed oracle: a deterministic worker
// kill mid-run, recovery via UOW replanning, at-least-once delivery with
// nothing unexpected. Seeds without a guaranteed-to-fire kill victim are
// skipped; the sweep fails if every seed were to skip.
func TestConformanceFaults(t *testing.T) {
	n := int64(12)
	if !testing.Short() {
		n = 30
	}
	if *seedFlag >= 0 {
		n = 1
	}
	ran := 0
	for i := int64(0); i < n; i++ {
		seed := i
		if *seedFlag >= 0 {
			seed = *seedFlag
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			s := Generate(seed, GenConfig{})
			fail, ok := CheckFaults(s)
			if !ok {
				t.Skipf("seed %d: no qualifying kill victim", seed)
			}
			ran++
			if fail != nil {
				t.Fatalf("fault-mode violation at seed %d:\n%v\n\nreproduce with:\n  %s",
					seed, fail, ReproCommand(seed))
			}
		})
	}
	if ran == 0 && *seedFlag < 0 {
		t.Fatalf("no seed in 0..%d produced a qualifying kill victim", n-1)
	}
}

// TestConformanceFaultsSeed18 pins the fault-mode spec that once failed
// with a filter panicking on "send on closed channel": after the kill, the
// retry's sessions took an end-of-work marker the aborted attempt had left
// on its peer connection, closed a queue a local producer still wrote to,
// and lost remote buffers. It runs in -short mode too, where the sweep
// stops below seed 18.
func TestConformanceFaultsSeed18(t *testing.T) {
	leakcheck.Check(t)
	s := Generate(18, GenConfig{})
	fail, ok := CheckFaults(s)
	if !ok {
		t.Fatal("seed 18 no longer has a qualifying kill victim; pin another spec that exercises a retry")
	}
	if fail != nil {
		t.Fatalf("fault-mode violation at seed 18:\n%v", fail)
	}
}

// TestConformanceElastic sweeps runtime-mutable copy sets: every seed's
// pipeline carries a scale schedule with at least one guaranteed scale-up
// and one guaranteed scale-down at work-cycle boundaries, and the full
// oracle set — per-UOW effective placements composed by the model — must
// hold on all three engines.
func TestConformanceElastic(t *testing.T) {
	n := int64(25)
	if !testing.Short() {
		n = 60
	}
	if *seedFlag >= 0 {
		n = 1
	}
	for i := int64(0); i < n; i++ {
		seed := i
		if *seedFlag >= 0 {
			seed = *seedFlag
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			s := Generate(seed, GenConfig{Elastic: true})
			var ups, downs int
			cur := map[[2]string]int{}
			for _, p := range s.Placement {
				cur[[2]string{p.Filter, p.Host}] = p.Copies
			}
			for _, step := range s.Scale {
				k := [2]string{step.Filter, step.Host}
				if step.Copies > cur[k] {
					ups++
				}
				if step.Copies < cur[k] {
					downs++
				}
				cur[k] = step.Copies
			}
			if ups < 1 || downs < 1 {
				t.Fatalf("generator must guarantee a scale-up and a scale-down, got up=%d down=%d:\n%s", ups, downs, s)
			}
			opts := Options{}
			if fail := Check(s, opts); fail != nil {
				failReport(t, seed, fail, opts)
			}
		})
	}
}

// TestConformancePushdown sweeps near-storage predicate pruning: every
// seed's pipeline carries a pushdown predicate (drawn after every base
// draw, so the base pipeline is seed-stable), sources evaluate the real
// dataset predicate against each identity's synthetic chunk summary, and
// the full oracle set — including pruning conservation: pruned plus
// delivered exactly partition the unpruned multiset — must hold on all
// three engines. The sweep itself must be non-vacuous: some identities
// pruned, some kept, and at least one seed where a source is genuinely
// split (both pruned and surviving identities).
func TestConformancePushdown(t *testing.T) {
	n := int64(25)
	if !testing.Short() {
		n = 60
	}
	if *seedFlag >= 0 {
		n = 1
	}
	var sweepPruned, sweepKept int
	partial := false
	for i := int64(0); i < n; i++ {
		seed := i
		if *seedFlag >= 0 {
			seed = *seedFlag
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			s := Generate(seed, GenConfig{Pushdown: true})
			if s.Pred == nil || s.Pred.Empty() {
				t.Fatalf("pushdown generator produced no predicate:\n%s", s)
			}
			// Seed stability: the predicate draw must not perturb the base
			// pipeline.
			base := s.Clone()
			base.Pred = nil
			if !reflect.DeepEqual(Generate(seed, GenConfig{}), base) {
				t.Fatalf("pushdown draw changed the base pipeline of seed %d", seed)
			}
			m := buildModel(s)
			var pruned, kept int
			for _, ids := range m.prunedIDs {
				for _, cnt := range ids {
					pruned += cnt
				}
			}
			for _, f := range s.Filters {
				if f.Role != RoleSource {
					continue
				}
				if outs := s.outputsOf(f.Name); len(outs) > 0 {
					for _, cnt := range m.ids[outs[0].Name] {
						kept += cnt
					}
				}
			}
			sweepPruned += pruned
			sweepKept += kept
			if pruned > 0 && kept > 0 {
				partial = true
			}
			if fail := Check(s, Options{}); fail != nil {
				failReport(t, seed, fail, Options{})
			}
		})
	}
	if *seedFlag >= 0 {
		return
	}
	if sweepPruned == 0 || sweepKept == 0 {
		t.Fatalf("vacuous sweep: %d identities pruned, %d kept across all seeds", sweepPruned, sweepKept)
	}
	if !partial {
		t.Fatal("no seed split a pipeline into both pruned and surviving identities")
	}
}

// TestConformanceShrinksInjectedViolation tests the harness against
// itself: discard every ack count before the oracle diff — a violation on
// any pipeline with demand-driven traffic — and require the shrinker to
// reduce the first failing seed to a minimal two-filter, one-stream
// reproduction with a printable repro command.
func TestConformanceShrinksInjectedViolation(t *testing.T) {
	leakcheck.Check(t)
	opts := Options{
		Engines: []string{"core"},
		Perturb: func(_ string, st *core.Stats) {
			for _, ss := range st.Streams {
				ss.Acks = 0
			}
		},
	}
	for seed := int64(0); seed < 50; seed++ {
		s := Generate(seed, GenConfig{})
		fail := Check(s, opts)
		if fail == nil {
			continue // no demand-driven stream with traffic on this seed
		}
		min, mf := Shrink(s, opts, 0)
		if mf == nil {
			t.Fatalf("shrink lost the injected violation for seed %d", seed)
		}
		if len(min.Filters) > 3 {
			t.Fatalf("shrunk to %d filters, want <= 3:\n%s", len(min.Filters), min)
		}
		if len(min.Streams) != 1 {
			t.Fatalf("shrunk to %d streams, want 1:\n%s", len(min.Streams), min)
		}
		repro := ReproCommand(seed)
		if !strings.Contains(repro, fmt.Sprintf("-conformance.seed=%d", seed)) {
			t.Fatalf("repro command %q does not pin the seed", repro)
		}
		t.Logf("seed %d shrank to:\n%srepro: %s", seed, min, repro)
		return
	}
	t.Fatal("no seed in 0..49 generated a demand-driven stream to violate")
}

// Same seed, same spec — the whole harness rests on this.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		a, b := Generate(seed, GenConfig{}), Generate(seed, GenConfig{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different specs:\n%s\n%s", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d generated an invalid spec: %v\n%s", seed, err, a)
		}
	}
}

// The model's conservation totals must match a hand-computed diamond.
func TestStreamTotalsDiamond(t *testing.T) {
	s := &Spec{
		Filters: []Filter{
			{Name: "A", Role: RoleSource, Emit: 3},
			{Name: "T", Role: RoleTransform},
			{Name: "K", Role: RoleSink},
		},
		Streams: []Stream{
			{Name: "s0", From: "A", To: "T", Policy: "RR"},
			{Name: "s1", From: "A", To: "K", Policy: "RR"},
			{Name: "s2", From: "T", To: "K", Policy: "RR"},
		},
		Placement: []Place{
			{Filter: "A", Host: "h0", Copies: 2},
			{Filter: "T", Host: "h0", Copies: 1},
			{Filter: "K", Host: "h0", Copies: 1},
		},
		Hosts:    []Host{{Name: "h0", Speed: 1}},
		UOWs:     1,
		QueueCap: 16,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	totals := streamTotals(s)
	// A: 2 copies x 3 buffers on each output; T forwards its 6 to s2.
	want := map[string]int{"s0": 6, "s1": 6, "s2": 6}
	if !reflect.DeepEqual(totals, want) {
		t.Fatalf("totals %v, want %v", totals, want)
	}
	m := buildModel(s)
	wantIDs := map[string]int{}
	for c := 0; c < 2; c++ {
		for i := 0; i < 3; i++ {
			wantIDs[fmt.Sprintf("A.%d#%d>T", c, i)] = 1
		}
	}
	if !reflect.DeepEqual(m.ids["s2"], wantIDs) {
		t.Fatalf("s2 multiset %v, want %v", m.ids["s2"], wantIDs)
	}
}

// TestConformanceFused sweeps exec.Fuse under the delivery oracle: every
// seed's pipeline runs with one or more single-input transforms fused into
// their producers, on all three engines, and every consumer must receive
// exactly what the unfused pipeline delivers. The sweep must not be
// vacuous: enough seeds must fuse something, some into a multi-copy carrier
// (chains, rare in the draw, have TestFusedChain).
func TestConformanceFused(t *testing.T) {
	n := int64(25)
	if !testing.Short() {
		n = 60
	}
	if *seedFlag >= 0 {
		n = 1
	}
	var fusedSeeds, multiCopy int
	for i := int64(0); i < n; i++ {
		seed := i
		if *seedFlag >= 0 {
			seed = *seedFlag
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			leakcheck.Check(t)
			s := Generate(seed, GenConfig{Fused: true})
			base := s.Clone()
			base.Fused = nil
			if !reflect.DeepEqual(Generate(seed, GenConfig{}), base) {
				t.Fatalf("fusion draw changed the base pipeline of seed %d", seed)
			}
			if len(s.Fused) == 0 {
				t.Skipf("seed %d: no single-input transform to fuse", seed)
			}
			fusedSeeds++
			for _, name := range s.Fused {
				if s.totalCopies(s.carrier(name)) > 1 {
					multiCopy++
				}
			}
			if fail := Check(s, Options{}); fail != nil {
				failReport(t, seed, fail, Options{})
			}
		})
	}
	if *seedFlag >= 0 {
		return
	}
	if fusedSeeds < int(n)/4 || multiCopy == 0 {
		t.Fatalf("vacuous sweep: %d of %d seeds fused, %d fusions into multi-copy carriers", fusedSeeds, n, multiCopy)
	}
}

// TestFusedChain nests fusions: T1 and T2 both run inside A's two copies
// (T2's producer is itself fused), while A and T1 also feed the sink over
// real streams.
func TestFusedChain(t *testing.T) {
	leakcheck.Check(t)
	s := &Spec{
		Filters: []Filter{
			{Name: "A", Role: RoleSource, Emit: 5},
			{Name: "T1", Role: RoleTransform},
			{Name: "T2", Role: RoleTransform},
			{Name: "K", Role: RoleSink},
		},
		Streams: []Stream{
			{Name: "s0", From: "A", To: "T1", Policy: "RR"},
			{Name: "s1", From: "T1", To: "T2", Policy: "DD"},
			{Name: "s2", From: "T2", To: "K", Policy: "DD", Wire: WireBytes},
			{Name: "s3", From: "T1", To: "K", Policy: "WRR", Wire: WireFloats},
			{Name: "s4", From: "A", To: "K", Policy: "RR"},
		},
		Placement: []Place{
			{Filter: "A", Host: "h0", Copies: 2},
			{Filter: "T1", Host: "h1", Copies: 1},
			{Filter: "T2", Host: "h1", Copies: 3},
			{Filter: "K", Host: "h1", Copies: 2},
		},
		Hosts:    []Host{{Name: "h0", Speed: 1}, {Name: "h1", Speed: 2}},
		UOWs:     2,
		QueueCap: 16,
		Fused:    []string{"T1", "T2"},
	}
	if got := buildGraph(s, newRecorder()).Filters(); !reflect.DeepEqual(got, []string{"A", "K"}) {
		t.Fatalf("contracted graph has filters %v", got)
	}
	if fail := Check(s, Options{}); fail != nil {
		t.Fatal(fail)
	}
}
