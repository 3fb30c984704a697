package elastic

import "fmt"

// ScaleStep is one seeded copy-set membership change, applied at a
// work-cycle boundary: before unit of work BeforeUOW starts, the (Filter,
// Host) placement entry's copy count becomes Copies. Short of replanning
// around a dead host, a schedule is the only way copy counts change during
// a run, on all three engines: engines accept it through their Options, and
// the conformance harness seeds one to prove the delivery oracles hold
// across membership changes. The zero UOW
// boundary is the initial plan, so meaningful steps have BeforeUOW >= 1.
//
// A step with Copies <= 0 retires the entry — unless it is the filter's
// last, in which case it is clamped to one copy (a filter must run
// somewhere, and a stream must always have a copy set to write to). A step
// naming a (Filter, Host) pair absent from the placement appends a new
// entry.
type ScaleStep struct {
	BeforeUOW int
	Filter    string
	Host      string
	Copies    int
}

// Apply returns placement with the steps applied in order. The input is not
// mutated; entry order is preserved, with brand-new entries appended in
// step order, so repeated application is deterministic.
func Apply(placement []Entry, steps []ScaleStep) []Entry {
	out := append([]Entry(nil), placement...)
	for _, s := range steps {
		idx := -1
		for i := range out {
			if out[i].Filter == s.Filter && out[i].Host == s.Host {
				idx = i
				break
			}
		}
		switch {
		case idx < 0:
			if s.Copies >= 1 {
				out = append(out, Entry{Filter: s.Filter, Host: s.Host, Copies: s.Copies})
			}
		case s.Copies >= 1:
			out[idx].Copies = s.Copies
		default:
			// Retire the entry, but never the filter's last one.
			last := true
			for i := range out {
				if i != idx && out[i].Filter == s.Filter {
					last = false
					break
				}
			}
			if last {
				out[idx].Copies = 1
			} else {
				out = append(out[:idx], out[idx+1:]...)
			}
		}
	}
	return out
}

// EffectivePlacement returns the placement in force for unit of work uow:
// base with every step whose boundary has passed (BeforeUOW <= uow)
// applied, in schedule order.
func EffectivePlacement(base []Entry, steps []ScaleStep, uow int) []Entry {
	var due []ScaleStep
	for _, s := range steps {
		if s.BeforeUOW <= uow {
			due = append(due, s)
		}
	}
	if len(due) == 0 {
		return append([]Entry(nil), base...)
	}
	return Apply(base, due)
}

// StepsAt returns the steps firing exactly at the given work-cycle
// boundary, in schedule order — what an engine applies between UOW uow-1
// and uow.
func StepsAt(steps []ScaleStep, uow int) []ScaleStep {
	var out []ScaleStep
	for _, s := range steps {
		if s.BeforeUOW == uow {
			out = append(out, s)
		}
	}
	return out
}

// ValidateSchedule rejects scale steps that name a filter absent from the
// graph (a typo would otherwise silently grow a copy set nobody consumes),
// the reserved zero boundary, or — when hostOK is non-nil — a host the
// engine cannot place copies on. engine prefixes the error.
func ValidateSchedule(engine string, steps []ScaleStep, filters []string, hostOK func(host string) bool) error {
	known := make(map[string]bool, len(filters))
	for _, name := range filters {
		known[name] = true
	}
	for _, s := range steps {
		if !known[s.Filter] {
			return fmt.Errorf("%s: scale schedule names unknown filter %q", engine, s.Filter)
		}
		if s.BeforeUOW < 1 {
			return fmt.Errorf("%s: scale step for %q has BeforeUOW %d (the initial plan is the zero boundary; steps need >= 1)", engine, s.Filter, s.BeforeUOW)
		}
		if s.Copies >= 1 && hostOK != nil && !hostOK(s.Host) {
			return fmt.Errorf("%s: scale step for %q uses unknown host %q", engine, s.Filter, s.Host)
		}
	}
	return nil
}
