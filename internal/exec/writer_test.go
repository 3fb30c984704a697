package exec

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// ---- StreamWriter picks under writes and acknowledgments ----

func mustWrite(t *testing.T, sw *StreamWriter) {
	t.Helper()
	if err := sw.Write(Buffer{Size: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestTargetsDefensiveCopy: the writer keeps its own copy of the targets, so
// changing the caller's slice after construction changes no pick.
func TestTargetsDefensiveCopy(t *testing.T) {
	mine := targets2() // a:1 b:2
	port := &recordPort{}
	sw := NewStreamWriter("s", WeightedRoundRobin(), mine, port, nil, Meta{})
	mine[0].Copies = 5
	mine[1].Host = "mangled"
	mine[1].Copies = 1
	for i := 0; i < 6; i++ {
		mustWrite(t, sw)
	}
	// Still a:1 b:2, smoothly interleaved.
	if want := []int{1, 0, 1, 1, 0, 1}; !reflect.DeepEqual(port.picks, want) {
		t.Fatalf("picks = %v, want %v", port.picks, want)
	}
}

// ackPort hands each delivery's target to an acknowledging goroutine.
type ackPort chan int

func (p ackPort) Deliver(target int, _ Buffer, _ int) error {
	p <- target
	return nil
}

// TestConcurrentMutationsUnderWrites is a race-detector exercise: one
// goroutine writes while another acknowledges the deliveries and samples the
// window, as consuming copies and a debugger do. Every buffer is delivered
// and tallied.
func TestConcurrentMutationsUnderWrites(t *testing.T) {
	targets := []TargetInfo{{Host: "a", Copies: 1}, {Host: "b", Copies: 2}, {Host: "c", Copies: 3}}
	for _, p := range []Policy{DemandDriven(), DemandDrivenBatched(2)} {
		const writes = 2000
		port := make(ackPort, writes)
		counts := NewCounts(len(targets))
		sw := NewStreamWriter("s", p, targets, port, counts, Meta{})
		acks := NewAckChan(AckCap(targets, DefaultQueueCap))
		sw.BindAckSource(acks)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				acks.Offer(<-port, 1)
				sw.Unacked()
			}
		}()
		for i := 0; i < writes; i++ {
			mustWrite(t, sw)
		}
		wg.Wait()
		if n := counts.Get(0) + counts.Get(1) + counts.Get(2); n != writes {
			t.Fatalf("%s: tallied %d, want %d", p.Name(), n, writes)
		}
	}
}

// writePicksFingerprint is the FNV-64a hash of the pick sequences, final
// windows and delivery tallies of the seeded scripts below. It pins every
// policy's picks under plain writes and acknowledgments: any change to the
// rotation, credits, window accounting or tie-breaks moves it.
const writePicksFingerprint uint64 = 0x3b88de2276cfd007

// TestWritePicksPinned runs seeded scripts of Write and acknowledgment steps
// over RR, WRR, DD and DD/3 with one to four targets (copy counts 0 to 3,
// some colocated) and compares their fingerprint with the pinned value.
func TestWritePicksPinned(t *testing.T) {
	pols := []Policy{RoundRobin(), WeightedRoundRobin(), DemandDriven(), DemandDrivenBatched(3)}
	h := fnv.New64a()
	for seed := int64(1); seed <= 400; seed++ {
		for pi, p := range pols {
			rng := rand.New(rand.NewSource(seed*int64(len(pols)) + int64(pi)))
			n := 1 + rng.Intn(4)
			targets := make([]TargetInfo, n)
			for i := range targets {
				targets[i] = TargetInfo{Host: "abcd"[i : i+1], Copies: rng.Intn(4), Local: rng.Intn(3) == 0}
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
				if rng.Intn(8) < 6 {
					mustWrite(t, sw)
					if sw.WantsAcks() {
						outstanding[port.picks[len(port.picks)-1]]++
					}
				} else if i := rng.Intn(n); outstanding[i] > 0 {
					k := 1 + rng.Intn(outstanding[i])
					outstanding[i] -= k
					acks.Offer(i, k)
				}
			}
			fmt.Fprintln(h, p.Name(), n, port.picks, sw.Unacked(), counts.Len())
			for i := 0; i < counts.Len(); i++ {
				fmt.Fprint(h, counts.Get(i), " ")
			}
		}
	}
	if got := h.Sum64(); got != writePicksFingerprint {
		t.Fatalf("fingerprint = %#x, want %#x", got, writePicksFingerprint)
	}
}
