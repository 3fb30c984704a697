package dist

import (
	"slices"

	"datacutter/internal/elastic"
)

// Elasticity on the distributed engine. Copy-set membership changes apply
// at work-cycle boundaries only: the coordinator gracefully ends every
// worker session and re-runs setup with the mutated placement — the same
// session restart fault recovery already performs, minus the casualties.
// Transparent-copy semantics make this legal: per-UOW filter state is
// rebuilt by Init, so spawned and retired copies need no state hand-off.

// rescaleSessions applies the scale steps due at boundary uow. Steps whose
// target host has no live worker (it died mid-run and was replanned away)
// are dropped — a dead host cannot take copies. When the effective
// placement actually changes, every worker session is gracefully shut down
// and set up again with the new plan, and the elastic metrics and scale
// trace events are published on the coordinator's observer.
func (co *coordinator) rescaleSessions(due []elastic.ScaleStep, uow int) error {
	live := make([]elastic.ScaleStep, 0, len(due))
	for _, s := range due {
		if s.Copies >= 1 {
			if _, ok := co.addrs[s.Host]; !ok {
				continue
			}
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		return nil
	}
	old := co.placement
	next := elastic.Apply(old, live)
	if slices.Equal(old, next) {
		return nil
	}
	co.end("")
	co.placement = next
	elastic.RecordScaleDiff(co.o, old, next, uow)
	return co.connectAll()
}
