// Package elastic holds the engine-neutral placement-mutation helpers of
// the paper's transparent-copy sets. Fault replanning (ReplanDead) and the
// declarative scale schedule (ScaleStep, Apply, StepsAt, ValidateSchedule)
// share one code path, and RecordScale/RecordScaleDiff publish what changed.
// Copy-set membership changes only at work-cycle boundaries, where the
// runtime is re-placed (exec.Runtime.Place): through the scale schedule on
// every engine (core and simrt in exec.Runtime.Run, dist by restarting its
// worker sessions), and on dist also by replanning around a dead host.
// Between boundaries copy counts are fixed; heterogeneous hosts are
// absorbed by the demand-driven writer policy, as in the paper.
//
// Transparent copies make this legal (paper §2): copies of a filter are
// interchangeable and per-unit-of-work state is rebuilt by Init at each
// work-cycle boundary, so membership can change between cycles without any
// state hand-off.
package elastic

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one placement assignment: Copies transparent copies of Filter on
// Host. It is the engine-neutral shape of core's PlaceEntry and dist's
// PlacementEntry; engines convert at the boundary.
type Entry struct {
	Filter string
	Host   string
	Copies int
}

// ReplanDead rebuilds a placement after the hosts in dead are declared
// lost. Copies stranded on a dead host are re-created on survivors —
// preferentially on hosts that already run copies of the same filter (warm
// code paths, and WRR weights rescale naturally because the per-host copy
// counts grow), otherwise round-robin across all survivors. Entries for the
// same (filter, host) pair are merged. The input is not mutated; ordering
// is deterministic (first-appearance order), so a retry with the same dead
// set always produces the same plan.
func ReplanDead(placement []Entry, dead map[string]bool) ([]Entry, error) {
	// Survivor hosts in first-appearance order.
	var survivors []string
	seen := map[string]bool{}
	for _, pe := range placement {
		if !dead[pe.Host] && !seen[pe.Host] {
			seen[pe.Host] = true
			survivors = append(survivors, pe.Host)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("elastic: no surviving hosts (lost: %s)", deadList(dead))
	}

	// Filters in first-appearance order, with their surviving and lost
	// entries partitioned.
	type filterPlan struct {
		name     string
		hosts    []string       // surviving hosts already running this filter
		copies   map[string]int // surviving host -> copies
		orphaned int            // copies stranded on dead hosts
	}
	var order []*filterPlan
	byName := map[string]*filterPlan{}
	for _, pe := range placement {
		fp := byName[pe.Filter]
		if fp == nil {
			fp = &filterPlan{name: pe.Filter, copies: map[string]int{}}
			byName[pe.Filter] = fp
			order = append(order, fp)
		}
		if dead[pe.Host] {
			fp.orphaned += pe.Copies
			continue
		}
		if _, ok := fp.copies[pe.Host]; !ok {
			fp.hosts = append(fp.hosts, pe.Host)
		}
		fp.copies[pe.Host] += pe.Copies
	}

	out := make([]Entry, 0, len(placement))
	for _, fp := range order {
		targets := fp.hosts
		if len(targets) == 0 {
			targets = survivors
			for _, h := range targets {
				fp.copies[h] = 0
			}
			fp.hosts = targets
		}
		for i := 0; i < fp.orphaned; i++ {
			fp.copies[targets[i%len(targets)]]++
		}
		for _, h := range fp.hosts {
			if n := fp.copies[h]; n > 0 {
				out = append(out, Entry{Filter: fp.name, Host: h, Copies: n})
			}
		}
	}
	return out, nil
}

func deadList(dead map[string]bool) string {
	names := make([]string, 0, len(dead))
	for h := range dead {
		names = append(names, h)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
