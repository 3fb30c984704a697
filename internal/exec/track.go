package exec

import "sync/atomic"

// Countdown tracks end-of-work propagation for one stream: it starts at the
// number of producer copies (or producing hosts, in dist) and Done reports
// true exactly once, when the last producer finishes. Engines close the
// consumer queue on that edge. Extra Done calls after zero — dist's fault
// injector can duplicate producer-done frames — return false, so the close
// can never double-fire.
type Countdown struct {
	left atomic.Int32
}

// NewCountdown returns a countdown expecting n producer completions.
func NewCountdown(n int) *Countdown {
	c := &Countdown{}
	c.left.Store(int32(n))
	return c
}

// Done records one producer completion and reports whether it was the last.
func (c *Countdown) Done() bool { return c.left.Add(-1) == 0 }

// Left returns the number of outstanding producers (may go negative on
// duplicated completions; callers only act on the exact zero edge).
func (c *Countdown) Left() int { return int(c.left.Load()) }

// Counts is a per-target delivery tally, shared by all producer copies of
// one stream and safe for concurrent increment. Like the stream writers, a
// tally lives for one unit of work, so its width is fixed. Fold turns the
// indices back into the per-host map the engines expose in their stream
// stats.
type Counts struct {
	slots []atomic.Int64
}

// NewCounts returns a tally over n targets.
func NewCounts(n int) *Counts { return &Counts{slots: make([]atomic.Int64, n)} }

// Inc adds one delivery to target i.
func (c *Counts) Inc(i int) { c.slots[i].Add(1) }

// Get returns target i's delivery count (0 for targets beyond the tally).
func (c *Counts) Get(i int) int64 {
	if i >= len(c.slots) {
		return 0
	}
	return c.slots[i].Load()
}

// Len returns the number of targets tallied.
func (c *Counts) Len() int { return len(c.slots) }

// Fold adds the tally into a per-host map; hosts[i] names target i. Slots
// beyond the host list are skipped.
func (c *Counts) Fold(hosts []string, into map[string]int64) {
	for i := range c.slots[:min(len(c.slots), len(hosts))] {
		if v := c.slots[i].Load(); v != 0 {
			into[hosts[i]] += v
		}
	}
}
