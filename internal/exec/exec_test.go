package exec

import (
	"fmt"
	"reflect"
	"testing"
)

// ---- PolicyByName parsing ----

func TestPolicyByNameValid(t *testing.T) {
	cases := []struct {
		in   string
		name string
	}{
		{"RR", "RR"},
		{"WRR", "WRR"},
		{"DD", "DD"},
		{"DD/1", "DD/1"},
		{"DD/8", "DD/8"},
		{"DD/32", "DD/32"},
	}
	for _, c := range cases {
		p := PolicyByName(c.in)
		if p == nil {
			t.Fatalf("PolicyByName(%q) = nil", c.in)
		}
		if p.Name() != c.name {
			t.Fatalf("PolicyByName(%q).Name() = %q, want %q", c.in, p.Name(), c.name)
		}
	}
}

func TestPolicyByNameBatchFactor(t *testing.T) {
	p := PolicyByName("DD/8")
	w := p.NewWriter([]TargetInfo{{Host: "a", Copies: 1}, {Host: "b", Copies: 1}})
	if !w.WantsAcks() {
		t.Fatal("DD/8 writer does not want acks")
	}
	if got := AckBatchOf(w); got != 8 {
		t.Fatalf("AckBatchOf(DD/8 writer) = %d, want 8", got)
	}
	// Unbatched writers coalesce by 1.
	if got := AckBatchOf(DemandDriven().NewWriter([]TargetInfo{{Host: "a"}})); got != 1 {
		t.Fatalf("AckBatchOf(DD writer) = %d, want 1", got)
	}
}

func TestPolicyByNameInvalid(t *testing.T) {
	for _, in := range []string{
		"", "nope", "rr", "dd", "dd/8", "DD/", "DD/x", "DD/8x",
		"DD/0", "DD/-1", "DD/+2", "DD/08", "DD/ 8", "DD//2", "DD/1.5",
	} {
		if p := PolicyByName(in); p != nil {
			t.Fatalf("PolicyByName(%q) = %v, want nil", in, p.Name())
		}
	}
}

// ---- PolicyConfig / parse helpers ----

func TestPolicyConfigFor(t *testing.T) {
	var zero PolicyConfig
	if got := zero.For("s").Name(); got != "RR" {
		t.Fatalf("zero config resolves %q, want RR", got)
	}
	cfg := PolicyConfig{
		Default:   DemandDriven(),
		PerStream: map[string]Policy{"tri": WeightedRoundRobin()},
	}
	if got := cfg.For("tri").Name(); got != "WRR" {
		t.Fatalf("override resolves %q, want WRR", got)
	}
	if got := cfg.For("other").Name(); got != "DD" {
		t.Fatalf("default resolves %q, want DD", got)
	}
}

func TestParsePolicies(t *testing.T) {
	cfg, err := ParsePolicies("DD", map[string]string{"a": "WRR", "b": "DD/4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.For("a").Name() != "WRR" || cfg.For("b").Name() != "DD/4" || cfg.For("c").Name() != "DD" {
		t.Fatalf("resolution wrong: a=%s b=%s c=%s", cfg.For("a").Name(), cfg.For("b").Name(), cfg.For("c").Name())
	}
	if _, err := ParsePolicies("bogus", nil); err == nil {
		t.Fatal("bad default accepted")
	}
	if _, err := ParsePolicies("", map[string]string{"s": "bogus"}); err == nil {
		t.Fatal("bad per-stream name accepted")
	}
	cfg, err = ParsePolicies("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.For("s").Name() != "RR" {
		t.Fatal("empty default should resolve RR")
	}
}

func TestParseStreamPolicies(t *testing.T) {
	m, err := ParseStreamPolicies("tri=DD/4,img=WRR")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"tri": "DD/4", "img": "WRR"}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("parsed %v, want %v", m, want)
	}
	if got := StreamPolicyNames(m); !reflect.DeepEqual(got, []string{"img", "tri"}) {
		t.Fatalf("names %v not sorted", got)
	}
	if m, err := ParseStreamPolicies(""); err != nil || m != nil {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{"tri", "=DD", "tri=bogus", "tri=DD,tri=RR"} {
		if _, err := ParseStreamPolicies(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// ---- Ack plumbing ----

func TestAckChan(t *testing.T) {
	c := NewAckChan(4)
	if _, _, ok := c.TryAck(); ok {
		t.Fatal("empty channel yielded an ack")
	}
	c.Offer(2, 3)
	target, n, ok := c.TryAck()
	if !ok || target != 2 || n != 3 {
		t.Fatalf("TryAck = (%d,%d,%v)", target, n, ok)
	}
	for i := 0; i < 4; i++ {
		if !c.Offer(0, 1) {
			t.Fatalf("Offer %d rejected below capacity", i)
		}
	}
	if c.Offer(0, 1) {
		t.Fatal("Offer accepted past capacity")
	}
}

func TestAckSeq(t *testing.T) {
	var s AckSeq
	if _, _, ok := s.TryAck(); ok {
		t.Fatal("empty seq yielded an ack")
	}
	s.Offer(0, 1)
	s.Offer(1, 2)
	if target, n, ok := s.TryAck(); !ok || target != 0 || n != 1 {
		t.Fatalf("first TryAck = (%d,%d,%v)", target, n, ok)
	}
	if target, n, ok := s.TryAck(); !ok || target != 1 || n != 2 {
		t.Fatalf("second TryAck = (%d,%d,%v)", target, n, ok)
	}
	if _, _, ok := s.TryAck(); ok {
		t.Fatal("drained seq yielded an ack")
	}
}

func TestAckCap(t *testing.T) {
	targets := []TargetInfo{{Host: "a", Copies: 2}, {Host: "b", Copies: 0}}
	// 8 slack + (qcap + copies) per target, zero copies counting as one.
	if got := AckCap(targets, 4); got != 8+(4+2)+(4+1) {
		t.Fatalf("AckCap = %d", got)
	}
}

// ---- Coalescer ----

func TestCoalescerBatching(t *testing.T) {
	var sent [][2]int
	c := NewCoalescer[string](func(key string, n int) {
		if key != "k" {
			t.Fatalf("unexpected key %q", key)
		}
		sent = append(sent, [2]int{len(sent), n})
	})
	for i := 0; i < 7; i++ {
		c.Ack("k", 3)
	}
	if len(sent) != 2 || sent[0][1] != 3 || sent[1][1] != 3 {
		t.Fatalf("sent = %v, want two batches of 3", sent)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending keys = %d, want 1", c.Pending())
	}
	c.Flush()
	if len(sent) != 3 || sent[2][1] != 1 {
		t.Fatalf("flush sent %v", sent)
	}
	if c.Pending() != 0 {
		t.Fatal("flush left pending state")
	}
	c.Flush() // idempotent on empty
	if len(sent) != 3 {
		t.Fatal("empty flush sent something")
	}
}

func TestCoalescerEveryOne(t *testing.T) {
	count := 0
	c := NewCoalescer[int](func(int, int) { count++ })
	for i := 0; i < 5; i++ {
		c.Ack(7, 1)
	}
	if count != 5 || c.Pending() != 0 {
		t.Fatalf("every=1: %d sends, %d pending", count, c.Pending())
	}
}

// ---- Countdown / Counts ----

func TestCountdownSingleEdge(t *testing.T) {
	c := NewCountdown(3)
	if c.Done() || c.Done() {
		t.Fatal("premature zero edge")
	}
	if !c.Done() {
		t.Fatal("missed zero edge")
	}
	// Duplicate completions (dist fault injection) must not re-fire.
	if c.Done() || c.Done() {
		t.Fatal("zero edge fired twice")
	}
	if c.Left() >= 0 {
		t.Fatalf("Left = %d after duplicates", c.Left())
	}
}

func TestCountsFold(t *testing.T) {
	c := NewCounts(3)
	c.Inc(0)
	c.Inc(2)
	c.Inc(2)
	if c.Get(0) != 1 || c.Get(1) != 0 || c.Get(2) != 2 {
		t.Fatalf("tallies: %d %d %d", c.Get(0), c.Get(1), c.Get(2))
	}
	into := map[string]int64{"b": 5}
	c.Fold([]string{"a", "b", "b"}, into)
	// Folding accumulates (two targets may share a host) and skips zeros.
	if into["a"] != 1 || into["b"] != 7 {
		t.Fatalf("folded: %v", into)
	}
	if _, present := into["zero"]; present {
		t.Fatal("zero tally created a map entry")
	}
	// A host list shorter than the tally folds what it names, without panic.
	short := map[string]int64{}
	c.Fold([]string{"h"}, short)
	if len(short) != 1 || short["h"] != 1 {
		t.Fatalf("short fold: %v", short)
	}
}

// ---- StreamWriter ----

// recordPort captures deliveries and optionally acknowledges them
// immediately, simulating an infinitely fast consumer.
type recordPort struct {
	picks    []int
	ackEvery []int
	acks     *AckSeq // when set, every delivery is acked instantly
	err      error
}

func (p *recordPort) Deliver(target int, b Buffer, ackEvery int) error {
	if p.err != nil {
		return p.err
	}
	p.picks = append(p.picks, target)
	p.ackEvery = append(p.ackEvery, ackEvery)
	if p.acks != nil {
		p.acks.Offer(target, 1)
	}
	return nil
}

func targets2() []TargetInfo {
	return []TargetInfo{{Host: "a", Copies: 1}, {Host: "b", Copies: 2}}
}

func TestStreamWriterRoundRobin(t *testing.T) {
	port := &recordPort{}
	counts := NewCounts(2)
	sw := NewStreamWriter("s", RoundRobin(), targets2(), port, counts, Meta{})
	if sw.WantsAcks() {
		t.Fatal("RR wants acks")
	}
	if sw.AckEvery() != 0 {
		t.Fatalf("RR AckEvery = %d", sw.AckEvery())
	}
	for i := 0; i < 6; i++ {
		if err := sw.Write(Buffer{Payload: i, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(port.picks, []int{0, 1, 0, 1, 0, 1}) {
		t.Fatalf("picks = %v", port.picks)
	}
	for _, e := range port.ackEvery {
		if e != 0 {
			t.Fatalf("RR delivered with ackEvery %d", e)
		}
	}
	if counts.Get(0) != 3 || counts.Get(1) != 3 {
		t.Fatalf("counts: %d/%d", counts.Get(0), counts.Get(1))
	}
}

func TestStreamWriterWRRProportions(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), targets2(), port, nil, Meta{})
	got := map[int]int{}
	for i := 0; i < 9; i++ {
		if err := sw.Write(Buffer{Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range port.picks {
		got[p]++
	}
	if got[0] != 3 || got[1] != 6 {
		t.Fatalf("WRR split %v, want 3/6", got)
	}
}

func TestStreamWriterDDWindow(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", DemandDriven(), targets2(), port, nil, Meta{})
	acks := &AckSeq{}
	sw.BindAckSource(acks)
	if !sw.WantsAcks() || sw.AckEvery() != 1 {
		t.Fatalf("DD: wants=%v every=%d", sw.WantsAcks(), sw.AckEvery())
	}
	// No acks: window fills evenly.
	for i := 0; i < 4; i++ {
		if err := sw.Write(Buffer{Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if w := sw.Unacked(); w[0]+w[1] != 4 || w[0] != 2 {
		t.Fatalf("window after 4 unacked writes: %v", w)
	}
	// Ack everything on target 0; the next writes all pick it.
	acks.Offer(0, 2)
	if err := sw.Write(Buffer{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if last := port.picks[len(port.picks)-1]; last != 0 {
		t.Fatalf("post-ack pick = %d, want 0", last)
	}
	if w := sw.Unacked(); w[0] != 1 || w[1] != 2 {
		t.Fatalf("window after ack+write: %v", w)
	}
}

func TestStreamWriterDeliverErrorUncounted(t *testing.T) {
	wantErr := fmt.Errorf("cancelled")
	port := &recordPort{err: wantErr}
	counts := NewCounts(2)
	sw := NewStreamWriter("s", RoundRobin(), targets2(), port, counts, Meta{})
	if err := sw.Write(Buffer{Size: 1}); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if counts.Get(0) != 0 && counts.Get(1) != 0 {
		t.Fatal("failed delivery was counted")
	}
}

func TestStreamWriterBatchedAckEvery(t *testing.T) {
	port := &recordPort{}
	sw := NewStreamWriter("s", DemandDrivenBatched(4), targets2(), port, nil, Meta{})
	sw.BindAckSource(&AckSeq{})
	if sw.AckEvery() != 4 {
		t.Fatalf("DD/4 AckEvery = %d", sw.AckEvery())
	}
	if err := sw.Write(Buffer{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if port.ackEvery[0] != 4 {
		t.Fatalf("delivered ackEvery = %d, want 4", port.ackEvery[0])
	}
}

// ---- Fan-out benchmark ----

// BenchmarkExecFanout measures the shared write path — ack drain, policy
// pick, window update, delivery — over 4 targets with an instantly acking
// port, comparing the zero-overhead policies with DD and batched DD.
func BenchmarkExecFanout(b *testing.B) {
	targets := []TargetInfo{
		{Host: "a", Copies: 1, Local: true},
		{Host: "b", Copies: 2},
		{Host: "c", Copies: 1},
		{Host: "d", Copies: 4},
	}
	for _, pol := range []Policy{RoundRobin(), WeightedRoundRobin(), DemandDriven(), DemandDrivenBatched(8)} {
		b.Run(pol.Name(), func(b *testing.B) {
			acks := &AckSeq{}
			port := &recordPort{acks: acks}
			counts := NewCounts(len(targets))
			sw := NewStreamWriter("bench", pol, targets, port, counts, Meta{})
			if sw.WantsAcks() {
				sw.BindAckSource(acks)
			}
			buf := Buffer{Payload: nil, Size: 4096}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				port.picks = port.picks[:0]
				port.ackEvery = port.ackEvery[:0]
				if err := sw.Write(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
