package exec

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// ---- Reweight: the one mid-cycle change to a stream writer ----

func targets3() []TargetInfo {
	return []TargetInfo{
		{Host: "a", Copies: 1},
		{Host: "b", Copies: 1},
		{Host: "c", Copies: 1},
	}
}

func mustWrite(t *testing.T, sw *StreamWriter) {
	t.Helper()
	if err := sw.Write(Buffer{Size: 1}); err != nil {
		t.Fatal(err)
	}
}

// instantAcks has port acknowledge every delivery at once when sw's policy
// wants acks, keeping its windows empty.
func instantAcks(sw *StreamWriter, port *recordPort) *StreamWriter {
	if sw.WantsAcks() {
		port.acks = &AckSeq{}
		sw.BindAckSource(port.acks)
	}
	return sw
}

// TestTargetsDefensiveCopy: the writer keeps its own copy of the targets, so
// changing the caller's slice after construction changes nothing, and a
// Reweight never writes through to it.
func TestTargetsDefensiveCopy(t *testing.T) {
	mine := targets2() // a:1 b:2
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), mine, port, nil, Meta{})
	mine[1].Host = "mangled"
	sw.Reweight("mangled", 5) // not one of the writer's targets: ignored
	sw.Reweight("a", 2)
	if mine[0].Copies != 1 {
		t.Fatalf("Reweight wrote through to the caller's slice: %+v", mine)
	}
	for i := 0; i < 4; i++ {
		mustWrite(t, sw)
	}
	// a:2 b:2 alternate.
	if !reflect.DeepEqual(port.picks, []int{0, 1, 0, 1}) {
		t.Fatalf("picks = %v, want [0 1 0 1]", port.picks)
	}
}

func TestReweightShiftsWRRProportions(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), targets2(), port, nil, Meta{})
	sw.Reweight("a", 2)
	sw.Reweight("b", 1)
	got := map[int]int{}
	for i := 0; i < 9; i++ {
		mustWrite(t, sw)
	}
	for _, p := range port.picks {
		got[p]++
	}
	// Weights flipped from 1:2 to 2:1.
	if got[0] != 6 || got[1] != 3 {
		t.Fatalf("WRR split after reweight %v, want 6/3", got)
	}
}

func TestReweightScalesDDBatchedNormalization(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", DemandDrivenBatched(2), targets2(), port, nil, Meta{})
	sw.BindAckSource(&AckSeq{})
	// b has 2 copies: unbalanced raw windows normalize equal. Reweight b to
	// 1 copy and its window stops being discounted.
	for i := 0; i < 6; i++ {
		mustWrite(t, sw)
	}
	w := sw.Unacked()
	if w[0]+w[1] != 6 {
		t.Fatalf("window = %v", w)
	}
	before := w[1]
	sw.Reweight("b", 1)
	got := map[int]int{}
	for i := 0; i < 4; i++ {
		mustWrite(t, sw)
	}
	for _, p := range port.picks[6:] {
		got[p]++
	}
	if before > 2 && got[1] > got[0] {
		t.Fatalf("reweighted b still over-fed: %v (window before %v)", got, w)
	}
}

// TestMutationsApplyAtPickBoundary: a Reweight takes hold at the next pick,
// and one undone before any pick leaves the picks as if it never happened.
func TestMutationsApplyAtPickBoundary(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), targets2(), port, nil, Meta{})
	sw.Reweight("a", 4)
	sw.Reweight("a", 1)
	for i := 0; i < 3; i++ {
		mustWrite(t, sw) // one a:1 b:2 cycle
	}
	sw.Reweight("b", 1)
	for i := 0; i < 2; i++ {
		mustWrite(t, sw) // one a:1 b:1 cycle
	}
	if want := []int{1, 0, 1, 0, 1}; !reflect.DeepEqual(port.picks, want) {
		t.Fatalf("picks = %v, want %v", port.picks, want)
	}
}

// A reweight rebuilds nothing, so the writer carries on from where it was.
// checkReweightKeepsState writes once over targets a, b, c (b colocated when
// bLocal), reweights a to 2 copies, writes three more times and compares the
// picks with want.
func checkReweightKeepsState(t *testing.T, pol Policy, bLocal bool, want []int) {
	t.Helper()
	targets := targets3()
	targets[1].Local = bLocal
	port := &recordPort{}
	sw := instantAcks(NewStreamWriter("s", pol, targets, port, nil, Meta{}), port)
	mustWrite(t, sw)
	sw.Reweight("a", 2)
	for i := 0; i < 3; i++ {
		mustWrite(t, sw)
	}
	if !reflect.DeepEqual(port.picks, want) {
		t.Fatalf("%s: picks = %v, want %v", pol.Name(), port.picks, want)
	}
}

// TestRRMigrationRotationResumes: RR's rotation resumes at b after a
// reweight; a reset rotation would restart at a.
func TestRRMigrationRotationResumes(t *testing.T) {
	checkReweightKeepsState(t, RoundRobin(), false, []int{0, 1, 2, 0})
}

// TestWRRMigrationKeepsSurvivorCredits: WRR's smooth credits survive a
// reweight. After a's pick, b and c are owed their turn before a's new weight
// counts; reset credits would pick a again.
func TestWRRMigrationKeepsSurvivorCredits(t *testing.T) {
	checkReweightKeepsState(t, WeightedRoundRobin(), false, []int{0, 1, 2, 0})
}

// TestReweightKeepsPolicyState: DD's tie-break rotation survives a reweight.
// Instant acks keep every window empty, so picks follow the rotation; a reset
// rotation would restart at a.
func TestReweightKeepsPolicyState(t *testing.T) {
	checkReweightKeepsState(t, DemandDrivenBatched(2), false, []int{0, 1, 2, 0})
}

// TestDDMigrationPrefersLocalAfterRebuild: DD's colocated-target preference
// survives a reweight. Every pick is a tie, and the colocated b wins each one.
func TestDDMigrationPrefersLocalAfterRebuild(t *testing.T) {
	for _, pol := range []Policy{DemandDriven(), DemandDrivenBatched(2)} {
		checkReweightKeepsState(t, pol, true, []int{1, 1, 1, 1})
	}
}

// TestConcurrentMutationsUnderWrites is a race-detector exercise: one
// goroutine writes while another reweights and samples the window, as core's
// autoscale controller does. Every buffer is delivered and tallied.
func TestConcurrentMutationsUnderWrites(t *testing.T) {
	for _, p := range []Policy{WeightedRoundRobin(), DemandDrivenBatched(2)} {
		port := &recordPort{}
		counts := NewCounts(3)
		sw := instantAcks(NewStreamWriter("s", p, targets3(), port, counts, Meta{}), port)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sw.Reweight("abc"[i%3:i%3+1], 1+i%4)
				sw.Unacked()
			}
		}()
		const writes = 2000
		for i := 0; i < writes; i++ {
			mustWrite(t, sw)
		}
		close(stop)
		wg.Wait()
		if n := counts.Get(0) + counts.Get(1) + counts.Get(2); len(port.picks) != writes || n != writes {
			t.Fatalf("%s: delivered %d, tallied %d, want %d", p.Name(), len(port.picks), n, writes)
		}
	}
}

// reweightPicksFingerprint is the FNV-64a hash of the pick sequences, final
// windows and delivery tallies of the seeded scripts below. It pins Reweight's
// effect on every policy's picks: any change to when a reweight takes hold,
// or to the rotation, credit or window state it leaves behind, moves it.
const reweightPicksFingerprint uint64 = 0xd3cb8094634f36d0

// TestReweightPicksPinned runs seeded scripts of Write, Reweight and
// acknowledgment steps over RR, WRR, DD and DD/3 with one to four targets —
// including reweights of unknown hosts and to zero copies, which must be
// ignored — and compares their fingerprint with the pinned value.
func TestReweightPicksPinned(t *testing.T) {
	pols := []Policy{RoundRobin(), WeightedRoundRobin(), DemandDriven(), DemandDrivenBatched(3)}
	hosts := []string{"a", "b", "c", "d", "unknown"}
	h := fnv.New64a()
	for seed := int64(1); seed <= 400; seed++ {
		for pi, p := range pols {
			rng := rand.New(rand.NewSource(seed*int64(len(pols)) + int64(pi)))
			n := 1 + rng.Intn(4)
			targets := make([]TargetInfo, n)
			for i := range targets {
				targets[i] = TargetInfo{Host: hosts[i], Copies: rng.Intn(4), Local: rng.Intn(3) == 0}
			}
			port := &recordPort{}
			counts := NewCounts(n)
			sw := NewStreamWriter("s", p, targets, port, counts, Meta{})
			acks := &AckSeq{}
			if sw.WantsAcks() {
				sw.BindAckSource(acks)
			}
			outstanding := make([]int, n)
			for step := 0; step < 120; step++ {
				switch r := rng.Intn(10); {
				case r < 6:
					mustWrite(t, sw)
					if sw.WantsAcks() {
						outstanding[port.picks[len(port.picks)-1]]++
					}
				case r < 8:
					// hosts[n] is outside the target set.
					sw.Reweight(hosts[rng.Intn(n+1)], rng.Intn(5))
				default:
					if i := rng.Intn(n); outstanding[i] > 0 {
						k := 1 + rng.Intn(outstanding[i])
						outstanding[i] -= k
						acks.Offer(i, k)
					}
				}
			}
			fmt.Fprintln(h, p.Name(), n, port.picks, sw.Unacked(), counts.Len())
			for i := 0; i < counts.Len(); i++ {
				fmt.Fprint(h, counts.Get(i), " ")
			}
		}
	}
	if got := h.Sum64(); got != reweightPicksFingerprint {
		t.Fatalf("fingerprint = %#x, want %#x", got, reweightPicksFingerprint)
	}
}
