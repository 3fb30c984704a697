package core

import "datacutter/internal/exec"

// The stats shape every engine reports in lives with the runtime that
// fills it (internal/exec).

// StreamStats aggregates traffic on one logical stream across a run.
type StreamStats = exec.StreamStats

// FilterStats aggregates execution of one filter's copies across a run.
type FilterStats = exec.FilterStats

// Stats is the result of a run.
type Stats = exec.Stats

// NewStats allocates an empty Stats for a graph.
func NewStats(g *Graph) *Stats { return exec.NewStats(g.Filters(), g.Streams()) }

// MinAvgMax summarizes a per-copy series.
func MinAvgMax(xs []float64) (min, avg, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min, max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	return min, sum / float64(len(xs)), max
}
