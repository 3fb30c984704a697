package elastic

import (
	"datacutter/internal/obs"
)

// Metric names published by the elasticity machinery. The copyset-size
// gauge is namespaced per copy set (GaugeCopysetSize + ".<filter>.<host>"),
// matching the per-stream naming the engines already use.
const (
	MetricCopiesAdded   = "elastic.copies_added"
	MetricCopiesRemoved = "elastic.copies_removed"
	GaugeCopysetSize    = "elastic.copyset_size"
)

// RecordScale publishes one applied copy-count change: the copies_added /
// copies_removed counters, the per-set copyset_size gauge, and a scale-up /
// scale-down trace event (Filter and Host name the set, Copy carries the
// new count, Note the reason). Safe on a nil observer.
func RecordScale(o *obs.Observer, filter, host string, oldCopies, newCopies, uow int, reason string) {
	if o == nil || oldCopies == newCopies {
		return
	}
	if reg := o.Registry(); reg != nil {
		if newCopies > oldCopies {
			reg.Counter(MetricCopiesAdded).Add(int64(newCopies - oldCopies))
		} else {
			reg.Counter(MetricCopiesRemoved).Add(int64(oldCopies - newCopies))
		}
		reg.Gauge(GaugeCopysetSize + "." + filter + "." + host).Set(int64(newCopies))
	}
	kind := obs.KindScaleUp
	if newCopies < oldCopies {
		kind = obs.KindScaleDown
	}
	o.Emit(obs.Event{
		Kind: kind, Filter: filter, Host: host, Copy: newCopies, UOW: uow,
		Note: reason,
	})
}

// RecordScaleDiff publishes one RecordScale per (filter, host) copy set
// whose size differs between the old and next placements — next's sets in
// order, then the sets next retired. The scale schedule is the one source
// of such changes.
func RecordScaleDiff(o *obs.Observer, old, next []Entry, uow int) {
	if o == nil {
		return
	}
	type key struct{ filter, host string }
	tally := func(es []Entry) (map[key]int, []key) {
		n := make(map[key]int, len(es))
		var order []key
		for _, e := range es {
			k := key{e.Filter, e.Host}
			if _, seen := n[k]; !seen {
				order = append(order, k)
			}
			n[k] += e.Copies
		}
		return n, order
	}
	before, oldOrder := tally(old)
	after, order := tally(next)
	for _, k := range oldOrder {
		if _, kept := after[k]; !kept {
			order = append(order, k)
		}
	}
	for _, k := range order {
		RecordScale(o, k.filter, k.host, before[k], after[k], uow, "scale schedule")
	}
}
