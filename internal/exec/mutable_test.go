package exec

import (
	"reflect"
	"sync"
	"testing"
)

// ---- runtime-mutable target sets ----

func targets3() []TargetInfo {
	return []TargetInfo{
		{Host: "a", Copies: 1},
		{Host: "b", Copies: 1},
		{Host: "c", Copies: 1},
	}
}

func TestTargetsDefensiveCopy(t *testing.T) {
	sw := NewStreamWriter("s", RoundRobin(), targets2(), &recordPort{}, nil, Meta{})
	got := sw.Targets()
	got[0].Host = "mangled"
	got[0].Copies = 99
	again := sw.Targets()
	if again[0].Host != "a" || again[0].Copies != 1 {
		t.Fatalf("internal targets aliased through Targets(): %+v", again)
	}
	// The constructor must also defend against the caller's slice.
	mine := targets2()
	sw = NewStreamWriter("s", RoundRobin(), mine, &recordPort{}, nil, Meta{})
	mine[1].Host = "mangled"
	if ts := sw.Targets(); ts[1].Host != "b" {
		t.Fatalf("constructor aliased caller slice: %+v", ts)
	}
}

func TestRemoveTargetSkipsInactive(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", RoundRobin(), targets3(), port, nil, Meta{})
	// Two full cycles, then remove b. Stable indices: a=0 b=1 c=2.
	for i := 0; i < 6; i++ {
		mustWrite(t, sw)
	}
	sw.RemoveTarget("b")
	for i := 0; i < 4; i++ {
		mustWrite(t, sw)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 2, 0, 2}
	if !reflect.DeepEqual(port.picks, want) {
		t.Fatalf("picks = %v, want %v", port.picks, want)
	}
	if ts := sw.Targets(); len(ts) != 2 || ts[0].Host != "a" || ts[1].Host != "c" {
		t.Fatalf("active targets after remove: %+v", ts)
	}
}

func TestRemoveLastTargetIgnored(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", RoundRobin(), []TargetInfo{{Host: "a", Copies: 1}}, port, nil, Meta{})
	sw.RemoveTarget("a")
	mustWrite(t, sw)
	if len(port.picks) != 1 || port.picks[0] != 0 {
		t.Fatalf("picks = %v", port.picks)
	}
	if ts := sw.Targets(); len(ts) != 1 {
		t.Fatalf("last target was removed: %+v", ts)
	}
}

func TestAddTargetAppendsAndGrowsCounts(t *testing.T) {
	port := &recordPort{}
	counts := NewCounts(2)
	sw := NewStreamWriter("s", RoundRobin(), targets2(), port, counts, Meta{})
	mustWrite(t, sw) // a
	sw.AddTarget(TargetInfo{Host: "c", Copies: 1})
	for i := 0; i < 5; i++ {
		mustWrite(t, sw)
	}
	// After the add, rotation continues from b then includes c.
	want := []int{0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(port.picks, want) {
		t.Fatalf("picks = %v, want %v", port.picks, want)
	}
	if counts.Len() != 3 {
		t.Fatalf("counts.Len() = %d after AddTarget", counts.Len())
	}
	if counts.Get(2) != 2 {
		t.Fatalf("appended target tally = %d, want 2", counts.Get(2))
	}
}

func TestReAddReclaimsStableIndexAndWindow(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", DemandDriven(), targets2(), port, nil, Meta{})
	acks := &AckSeq{}
	sw.BindAckSource(acks)
	// Fill both windows: a=2 b=2.
	for i := 0; i < 4; i++ {
		mustWrite(t, sw)
	}
	sw.RemoveTarget("a")
	// a's window slot survives removal; writes go to b only.
	mustWrite(t, sw)
	if w := sw.Unacked(); w[0] != 2 || w[1] != 3 {
		t.Fatalf("window after remove+write: %v", w)
	}
	// A late ack for the removed target still drains its slot.
	acks.Offer(0, 2)
	sw.AddTarget(TargetInfo{Host: "a", Copies: 1})
	// a rejoined at its old index with a drained window — DD picks it.
	mustWrite(t, sw)
	if last := port.picks[len(port.picks)-1]; last != 0 {
		t.Fatalf("post-rejoin pick = %d, want stable index 0", last)
	}
	if w := sw.Unacked(); w[0] != 1 || w[1] != 3 {
		t.Fatalf("window after rejoin: %v", w)
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

func TestWRRMigrationKeepsSurvivorCredits(t *testing.T) {
	// 3 targets weight 1 each. After k picks, credits encode who is owed
	// next. Removing an untouched target must not reset the cycle.
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), targets3(), port, nil, Meta{})
	mustWrite(t, sw) // picks a (index 0)
	sw.RemoveTarget("a")
	mustWrite(t, sw)
	mustWrite(t, sw)
	// b and c were owed their turn; the rebuilt writer must serve both
	// before returning to anyone.
	got := map[int]int{}
	for _, p := range port.picks[1:] {
		got[p]++
	}
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("post-migration picks %v, want one each of b,c", port.picks[1:])
	}
}

func TestMutationsApplyAtPickBoundary(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", RoundRobin(), targets2(), port, nil, Meta{})
	sw.RemoveTarget("a")
	sw.AddTarget(TargetInfo{Host: "a", Copies: 1})
	// Queued ops cancel out before any pick: behavior identical to no-op.
	for i := 0; i < 4; i++ {
		mustWrite(t, sw)
	}
	if !reflect.DeepEqual(port.picks, []int{0, 1, 0, 1}) {
		t.Fatalf("picks = %v", port.picks)
	}
}

func TestConcurrentMutationsUnderWrites(t *testing.T) {
	// Race-detector exercise: one goroutine writes, another churns
	// membership and weights. Invariant: every pick lands on an index that
	// was active at pick time, and the writer never panics or deadlocks.
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), targets3(), port, NewCounts(3), Meta{})
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
			switch i % 4 {
			case 0:
				sw.RemoveTarget("b")
			case 1:
				sw.Reweight("a", 1+i%3)
			case 2:
				sw.AddTarget(TargetInfo{Host: "b", Copies: 2})
			case 3:
				sw.Targets()
				sw.Unacked()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		mustWrite(t, sw)
	}
	close(stop)
	wg.Wait()
	if len(port.picks) != 2000 {
		t.Fatalf("delivered %d, want 2000", len(port.picks))
	}
	for _, p := range port.picks {
		if p < 0 || p > 2 {
			t.Fatalf("pick outside stable table: %d", p)
		}
	}
}

func TestCountsGrowConcurrent(t *testing.T) {
	c := NewCounts(1)
	var wg sync.WaitGroup
	const incs = 5000
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < incs; i++ {
			c.Inc(0)
		}
	}()
	go func() {
		defer wg.Done()
		for n := 2; n < 64; n++ {
			c.Grow(n)
		}
	}()
	wg.Wait()
	if c.Get(0) != incs {
		t.Fatalf("lost increments across Grow: %d/%d", c.Get(0), incs)
	}
	if c.Len() != 63 {
		t.Fatalf("Len = %d, want 63", c.Len())
	}
	c.Grow(10) // shrinking request is a no-op
	if c.Len() != 63 {
		t.Fatal("Grow shrank the tally")
	}
	into := map[string]int64{}
	c.Fold([]string{"h"}, into) // host list shorter than tally: no panic
	if into["h"] != incs {
		t.Fatalf("fold: %v", into)
	}
}

func TestRRMigrationRotationResumes(t *testing.T) {
	// next pointed at a removed target: rotation resumes at the next
	// surviving one, cyclically.
	port := &recordPort{}
	sw := NewStreamWriter("s", RoundRobin(), targets3(), port, nil, Meta{})
	mustWrite(t, sw) // a; next = b
	sw.RemoveTarget("b")
	mustWrite(t, sw) // next surviving after b is c
	mustWrite(t, sw) // then a
	if !reflect.DeepEqual(port.picks, []int{0, 2, 0}) {
		t.Fatalf("picks = %v", port.picks)
	}
}

func TestDDMigrationPrefersLocalAfterRebuild(t *testing.T) {
	port := &recordPort{}
	targets := []TargetInfo{
		{Host: "a", Copies: 1},
		{Host: "b", Copies: 1, Local: true},
		{Host: "c", Copies: 1},
	}
	sw := NewStreamWriter("s", DemandDriven(), targets, port, nil, Meta{})
	sw.BindAckSource(&AckSeq{})
	sw.RemoveTarget("c")
	mustWrite(t, sw)
	// All windows equal (zero): the rebuilt writer still prefers the
	// colocated copy set, proving Local survived the rebuild.
	if port.picks[0] != 1 {
		t.Fatalf("first pick = %d, want local index 1", port.picks[0])
	}
}

func mustWrite(t *testing.T, sw *StreamWriter) {
	t.Helper()
	if err := sw.Write(Buffer{Size: 1}); err != nil {
		t.Fatal(err)
	}
}
