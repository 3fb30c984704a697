package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"

	"datacutter/internal/elastic"
	"datacutter/internal/exec"
)

// Elasticity on the real engine. Copy-set membership changes happen at
// work-cycle boundaries (exec.Runtime.Place), where every stream writer and
// delivery tally is built afresh. Mid-cycle, only two things move while
// buffers are in flight: the autoscale controller (elasticLoop) reweights
// WRR streams through StreamWriter.Reweight, and copy sets steal work from
// each other (stealQueue). Both read the runtime's live state through
// Runtime.Sample and the Clock seam.

// drainPending returns the copy-count changes the controller proposed during
// the previous cycle as steps stamped for boundary uow, plus their reasons
// for the trace events. Several decisions for one set keep the latest.
func (r *Runner) drainPending(uow int) ([]elastic.ScaleStep, map[scaleKey]string) {
	r.pendMu.Lock()
	pending := r.pending
	r.pending = nil
	r.pendMu.Unlock()
	steps := make([]elastic.ScaleStep, len(pending))
	reasons := make(map[scaleKey]string, len(pending))
	for i, d := range pending {
		steps[i] = elastic.ScaleStep{BeforeUOW: uow, Filter: d.Filter, Host: d.Host, Copies: d.Copies}
		reasons[scaleKey{d.Filter, d.Host}] = d.Reason
	}
	return steps, reasons
}

type scaleKey struct{ filter, host string }

// elasticLoop is the per-UOW autoscale controller: every Interval it (a)
// reweights WRR streams from observed per-target throughput, and (b) turns
// queue-depth / DD-window / p95-service signals into copy-count decisions
// queued for the next work-cycle boundary. It owns no engine state — all
// mutation goes through StreamWriter.Reweight or the pending queue.
func (r *Runner) elasticLoop(uow int, stop chan struct{}) {
	cfg := r.opts.Elastic.WithDefaults()
	qcap := r.rt.QueueCap()
	total := 0
	for _, e := range r.cur {
		total += e.Copies
	}
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()

	prevCounts := make(map[string][]int64)
	prevWeights := make(map[string]map[string]int)
	lowStreak := make(map[scaleKey]int)
	pendCopies := make(map[scaleKey]int)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}

		bySet := make(map[scaleKey]*elastic.Signals)
		var order []scaleKey
		// Streams in name order for deterministic sampling.
		loads := r.rt.Sample()
		sort.Slice(loads, func(i, j int) bool { return loads[i].Spec.Name < loads[j].Spec.Name })
		for _, st := range loads {
			name := st.Spec.Name

			// (a) WRR reweight from observed throughput since last tick.
			if st.Policy.Name() == "WRR" && len(st.Hosts) > 1 {
				cur := make([]int64, len(st.Hosts))
				tp := make(map[string]float64, len(st.Hosts))
				prev := prevCounts[name]
				for i, h := range st.Hosts {
					cur[i] = st.Counts.Get(i)
					d := cur[i]
					if i < len(prev) {
						d -= prev[i]
					}
					tp[h] += float64(d)
				}
				prevCounts[name] = cur
				weights := elastic.ReweightByThroughput(tp, cfg.MaxCopies)
				if !maps.Equal(weights, prevWeights[name]) && anyPositive(tp) {
					for _, sw := range st.Writers {
						for h, w := range weights {
							sw.Reweight(h, w)
						}
					}
					prevWeights[name] = weights
					elastic.RecordRebalance(r.opts.Obs, name, "", uow, weightNote(weights))
				}
			}

			// (b) Load signals per consumer copy set. A consumer filter can
			// have several input streams; merge to the worst occupancy.
			windows := windowFractions(st, qcap)
			p95 := 0.0
			if reg := r.opts.Obs.Registry(); reg != nil {
				p95 = reg.Histogram("core.filter." + st.Spec.To + ".service_seconds").Quantile(0.95)
			}
			for i, h := range st.Hosts {
				key := scaleKey{st.Spec.To, h}
				sig := bySet[key]
				if sig == nil {
					sig = &elastic.Signals{Filter: st.Spec.To, Host: h, Copies: st.Copies[i], QueueCap: qcap}
					bySet[key] = sig
					order = append(order, key)
				}
				if q := st.QueueLen[i]; q > sig.QueueLen {
					sig.QueueLen = q
				}
				if windows[i] > sig.WindowFrac {
					sig.WindowFrac = windows[i]
				}
				if p95 > sig.P95Service {
					sig.P95Service = p95
				}
			}
		}
		// Scale-down hysteresis input: consecutive low-occupancy ticks per
		// set (see elastic.Config.DownAfter).
		for _, key := range order {
			if bySet[key].Occupancy() <= cfg.LowWater {
				lowStreak[key]++
			} else {
				lowStreak[key] = 0
			}
			bySet[key].LowStreak = lowStreak[key]
		}
		// One decision per copy set per work cycle: a set with a pending
		// change is excluded from further sampling until the boundary applies
		// it. Its observed copy count cannot change mid-cycle, so re-deciding
		// would double-count the same step against the budget — the bug class
		// where the controller overshoots its bound by one per extra tick.
		sets := make([]elastic.Signals, 0, len(order))
		for _, key := range order {
			if _, ok := pendCopies[key]; !ok {
				sets = append(sets, *bySet[key])
			}
		}
		decisions := elastic.Decide(cfg, sets, total)
		for _, d := range decisions {
			key := scaleKey{d.Filter, d.Host}
			total += d.Copies - bySet[key].Copies
			pendCopies[key] = d.Copies
		}
		r.pendMu.Lock()
		r.pending = append(r.pending, decisions...)
		r.pendMu.Unlock()
	}
}

// windowFractions samples DD ack-window occupancy per target across the
// stream's producer writers: the max unacked fraction of the effective
// window (queue capacity plus copy count — the in-flight bound per target).
func windowFractions(st exec.StreamLoad, qcap int) []float64 {
	out := make([]float64, len(st.Hosts))
	for _, sw := range st.Writers {
		if !sw.WantsAcks() {
			return out
		}
		una := sw.Unacked()
		for i := range st.Hosts {
			if i >= len(una) {
				break
			}
			bound := qcap + st.Copies[i]
			if bound <= 0 {
				continue
			}
			if f := float64(una[i]) / float64(bound); f > out[i] {
				out[i] = f
			}
		}
	}
	return out
}

func anyPositive(tp map[string]float64) bool {
	for _, v := range tp {
		if v > 0 {
			return true
		}
	}
	return false
}

func weightNote(w map[string]int) string {
	hosts := make([]string, 0, len(w))
	for h := range w {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	parts := make([]string, len(hosts))
	for i, h := range hosts {
		parts[i] = fmt.Sprintf("%s=%d", h, w[h])
	}
	return strings.Join(parts, " ")
}

// stealClock is the wall clock with work-stealing queues (Options.
// StealWork): every queue it makes knows the other copy sets' queues on its
// stream, so a consumer whose own queue is empty can drain a sibling's.
type stealClock struct {
	exec.Clock
	// sets collects each stream's queues as the runtime builds a unit of
	// work (single-threaded); reset starts the next unit's.
	sets map[string]*[]*exec.WallQueue
}

func (s *stealClock) reset() { s.sets = make(map[string]*[]*exec.WallQueue) }

func (s *stealClock) NewQueue(stream, _ string, capacity int) exec.Queue {
	sibs := s.sets[stream]
	if sibs == nil {
		sibs = new([]*exec.WallQueue)
		s.sets[stream] = sibs
	}
	q := &stealQueue{WallQueue: exec.NewWallQueue(capacity), sibs: sibs}
	*sibs = append(*sibs, q.WallQueue)
	return q
}

// stealQueue is a copy set's queue whose Get steals: the copy drains its own
// queue first, then opportunistically takes from sibling copy sets' queues
// on the same stream. Deliveries carry their producer window's address, so
// a stolen buffer acknowledges the correct window. All of a stream's queues
// close together at end-of-work, and closed channels still hand out their
// buffered remainder, so the final drain loop strands nothing.
type stealQueue struct {
	*exec.WallQueue
	sibs *[]*exec.WallQueue // every copy set's queue on the stream, own included
}

func (q *stealQueue) Get(th exec.Thread, onBlock func()) (exec.Delivery, bool, bool) {
	if len(*q.sibs) < 2 {
		return q.WallQueue.Get(th, onBlock)
	}
	own := q.C
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// Own queue first: demand-based balance within the copy set.
		select {
		case d, ok := <-own:
			if ok {
				return d, true, false
			}
			// Own queue closed: drain every sibling to exhaustion. A
			// sibling that is open-but-empty is mid-close (the close loop
			// walks all queues); yield and rescan.
			for {
				if d, ok, done := q.steal(); ok || done {
					return d, ok, false
				}
				select {
				case <-q.Stop:
					return exec.Delivery{}, false, false
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
		case <-q.Stop:
			return exec.Delivery{}, false, false
		default:
		}
		// Own queue empty: steal one buffer from a sibling, if any.
		if d, ok, _ := q.steal(); ok {
			return d, true, false
		}
		// Nothing anywhere: wait briefly on the own queue, then rescan the
		// siblings — stealing is opportunistic, not a barrier.
		if timer == nil {
			timer = time.NewTimer(200 * time.Microsecond)
		} else {
			timer.Reset(200 * time.Microsecond)
		}
		select {
		case d, ok := <-own:
			if !timer.Stop() {
				<-timer.C
			}
			if ok {
				return d, true, false
			}
			// Closed: fall through via the next loop iteration's own-case.
		case <-q.Stop:
			return exec.Delivery{}, false, false
		case <-timer.C:
		}
	}
}

// steal takes one buffer from any sibling queue without blocking; done
// reports that every sibling is closed and drained.
func (q *stealQueue) steal() (d exec.Delivery, ok, done bool) {
	done = true
	for _, sib := range *q.sibs {
		if sib == q.WallQueue {
			continue
		}
		select {
		case d, ok = <-sib.C:
			if ok {
				return d, true, false
			}
		default:
			done = false
		}
	}
	return exec.Delivery{}, false, done
}
