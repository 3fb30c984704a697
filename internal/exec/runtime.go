package exec

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"datacutter/internal/elastic"
	"datacutter/internal/obs"
)

// Runtime is the copy-lifecycle runtime every engine runs: it owns the
// transparent copies placed on its host(s) and drives them through the
// paper's work cycle — Init, Process, Finalize per unit of work — with
// copy-set queues, demand-driven acknowledgments, end-of-work propagation,
// panic containment, first-error cancellation and per-copy time accounting.
// An engine parameterises it through two seams: the Clock and, when some
// copy sets live on other hosts, the Remote it sends through plus the
// inbound calls (Inject, ProducerDone, Ack) it makes as their traffic
// arrives. The phases are separate calls so a distributed coordinator can
// put a barrier between them; RunUOW runs them back to back.
type Runtime struct {
	cfg  Config
	cost Cost // cfg.Clock's cost model, nil on a plain clock
	qcap int
	m    metrics // all nil unless cfg.Obs is set

	// placement is the effective placement as Place last received it; Run
	// applies the scale schedule to it. Per filter, in placement order:
	// every host's entries, the host of each global copy index, the
	// instances run here.
	placement []elastic.Entry
	entries   map[string][]elastic.Entry
	hostOf    map[string][]string
	copies    map[string][]*instance

	// cur is the unit of work in flight (the inbound port reads it from the
	// engine's receive goroutines). phaseMu is held for each phase call: a
	// distributed engine calls the phases from different goroutines with
	// only a network round trip in between, which the memory model ignores.
	cur     atomic.Pointer[uow]
	phaseMu sync.Mutex

	done   chan struct{}
	failMu sync.Mutex
	err    error
}

// Config parameterises a Runtime.
type Config struct {
	Engine  string // "core", "simrt" or "dist": prefixes errors and metric names
	Clock   Clock
	Filters []string // the graph, in registration order
	Streams []StreamSpec
	New     func(filter string) (Filter, error) // builds one copy
	// Host, when set, is the one host whose copies run here; copy sets
	// placed elsewhere are reached through Remote. Empty: all hosts local.
	Host   string
	Remote Remote

	Policies    PolicyConfig
	QueueCap    int // per-copy-set queue capacity in buffers; 0 = DefaultQueueCap
	BufferBytes int // buffer size RunUOW proposes; 0 = DefaultBufferBytes
	Obs         *obs.Observer
}

// Option defaults shared by every engine.
const (
	DefaultQueueCap    = 8
	DefaultBufferBytes = 256 << 10
)

// CheckOptions rejects negative values of the two options every engine
// exposes: zero means "use the default", negative is always a caller bug.
func CheckOptions(engine string, queueCap, bufferBytes int) error {
	if queueCap < 0 {
		return fmt.Errorf("%s: Options.QueueCap must be >= 0 (0 selects the default of %d), got %d", engine, DefaultQueueCap, queueCap)
	}
	if bufferBytes < 0 {
		return fmt.Errorf("%s: Options.BufferBytes must be >= 0 (0 selects the default of 256 KiB), got %d", engine, bufferBytes)
	}
	return nil
}

// Remote is the engine's link to copy sets on other hosts — the outbound
// half of its transport. Its inbound twin is the Runtime's Inject,
// ProducerDone and Ack, which the engine calls as the messages arrive.
type Remote interface {
	// Deliver sends one picked buffer to the copy set e.Target names on
	// host, blocking for transport backpressure. On failure it aborts the
	// run with the cause and returns ErrCancelled.
	Deliver(host string, e Edge, b Buffer, ackEvery int) error
	// ProducerDone tells host that one producer copy of stream (an index
	// into Config.Streams) finished the unit of work; it must trail that
	// copy's buffers.
	ProducerDone(host string, uow, stream int)
	// Ack carries an acknowledgment of n buffers to producer copy e.From
	// on host.
	Ack(host string, e Edge, n int)
}

// Edge addresses one producer-copy → copy-set path in one unit of work:
// what a message between hosts carries to be routed, or dropped when stale.
type Edge struct {
	UOW          int
	Stream       int // index into Config.Streams
	From, Target int // producer global copy index, copy-set target index
}

// Cost is the optional cost model of a Clock: what the wall clock gets for
// free a virtual-time engine has to charge. Every hook runs on the calling
// copy's thread and may block it in virtual time.
type Cost interface {
	// Transfer occupies the network for one buffer before it is enqueued
	// on host to.
	Transfer(c *Copy, to string, bytes int)
	// Ack carries one acknowledgment message to producer host to, then
	// calls deliver; it must not block the acknowledging copy.
	Ack(c *Copy, to string, deliver func())
	// Compute and ChargeDisk implement the Ctx calls of the same names.
	Compute(c *Copy, refSeconds float64)
	ChargeDisk(c *Copy, disk, bytes int)
	// Drain waits out whatever ChargeDisk left in flight; it runs when the
	// copy's Process returns.
	Drain(c *Copy)
}

// instance is one transparent copy. It persists across units of work; only
// its index and total change when the copy set is rescaled around it.
type instance struct {
	filter       Filter
	name, host   string
	index, total int
}

type metrics struct {
	readStall, writeStall *obs.Histogram
	streams               map[string]streamMetrics
	service               map[string]*obs.Histogram // by filter
}

// streamMetrics are nil-safe counters: all nil when observability is off.
type streamMetrics struct{ buffers, bytes, acks *obs.Counter }

// New builds a runtime with no copies; Place gives it its first placement.
// The runtime's metric names are registered here and nowhere else:
// <engine>.{read,write}_stall_seconds, <engine>.stream.<s>.{buffers,bytes,
// acks} and <engine>.filter.<f>.service_seconds (time between a copy's
// successive reads).
func New(cfg Config) *Runtime {
	rt := &Runtime{
		cfg: cfg, qcap: cfg.QueueCap,
		copies: make(map[string][]*instance),
		done:   make(chan struct{}),
	}
	rt.cost, _ = cfg.Clock.(Cost)
	if rt.qcap <= 0 {
		rt.qcap = DefaultQueueCap
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		p := cfg.Engine
		rt.m = metrics{
			readStall:  reg.Histogram(p + ".read_stall_seconds"),
			writeStall: reg.Histogram(p + ".write_stall_seconds"),
			streams:    make(map[string]streamMetrics),
			service:    make(map[string]*obs.Histogram),
		}
		for _, sp := range cfg.Streams {
			rt.m.streams[sp.Name] = streamMetrics{
				buffers: reg.Counter(p + ".stream." + sp.Name + ".buffers"),
				bytes:   reg.Counter(p + ".stream." + sp.Name + ".bytes"),
				acks:    reg.Counter(p + ".stream." + sp.Name + ".acks"),
			}
		}
		for _, f := range cfg.Filters {
			rt.m.service[f] = reg.Histogram(p + ".filter." + f + ".service_seconds")
		}
	}
	return rt
}

// NewStats allocates an empty Stats shaped for the runtime's graph.
func (rt *Runtime) NewStats() *Stats { return NewStats(rt.cfg.Filters, rt.cfg.Streams) }

func (rt *Runtime) local(host string) bool { return rt.cfg.Host == "" || rt.cfg.Host == host }

// Place makes entries the effective placement, between units of work:
// surviving (filter, host) slots keep their instances, grown slots spawn
// fresh ones, shrunk slots retire instances from the end (closing those
// that implement io.Closer) — copies rebuild per-UOW state in Init, so a
// membership change at the boundary needs no state hand-off. Global copy
// indices and totals are reassigned in placement order; untouched filters
// keep theirs exactly. Entries repeating a (filter, host) pair are merged.
func (rt *Runtime) Place(entries []elastic.Entry) error {
	byFilter := make(map[string][]elastic.Entry)
	for _, e := range entries {
		es := byFilter[e.Filter]
		if i := slices.IndexFunc(es, func(x elastic.Entry) bool { return x.Host == e.Host }); i >= 0 {
			es[i].Copies += e.Copies
		} else {
			byFilter[e.Filter] = append(es, e)
		}
	}
	hostOf := make(map[string][]string, len(rt.cfg.Filters))
	for _, name := range rt.cfg.Filters {
		pool := make(map[string][]*instance)
		for _, in := range rt.copies[name] {
			pool[in.host] = append(pool[in.host], in)
		}
		var next []*instance
		idx := 0
		for _, e := range byFilter[name] {
			for c := 0; c < e.Copies; c++ {
				hostOf[name] = append(hostOf[name], e.Host)
				if rt.local(e.Host) {
					var in *instance
					if p := pool[e.Host]; len(p) > 0 {
						in, pool[e.Host] = p[0], p[1:]
					} else {
						f, err := rt.cfg.New(name)
						if err != nil {
							return fmt.Errorf("%s: building %s: %w", rt.cfg.Engine, name, err)
						}
						if s, ok := f.(ObserverSetter); ok {
							s.SetObserver(rt.cfg.Obs)
						}
						in = &instance{filter: f, name: name, host: e.Host}
					}
					in.index = idx
					next = append(next, in)
				}
				idx++
			}
		}
		for _, in := range next {
			in.total = idx
		}
		for _, rest := range pool {
			retire(rest)
		}
		rt.copies[name] = next
	}
	rt.placement, rt.entries, rt.hostOf = entries, byFilter, hostOf
	return nil
}

func retire(ins []*instance) {
	for _, in := range ins {
		if c, ok := in.filter.(io.Closer); ok {
			c.Close()
		}
	}
}

// Close retires every copy (closing those that implement io.Closer). The
// instances stay readable through Instances, so results a sink accumulated
// outlive the runtime.
func (rt *Runtime) Close() {
	for _, ins := range rt.copies {
		retire(ins)
	}
}

// Instances returns the filter instances that run here for a filter name,
// in global copy order.
func (rt *Runtime) Instances(name string) []Filter {
	out := make([]Filter, len(rt.copies[name]))
	for i, in := range rt.copies[name] {
		out[i] = in.filter
	}
	return out
}

// ---- Cancellation ----

// Abort records err as the run's failure and cancels it: every blocked and
// future Read and Write fails, and Done closes. Only the first call counts
// (later failures are its symptoms); it reports whether this was it. The
// runtime aborts for a failing copy, an engine for failures of its own (a
// dead peer, a coordinator abort).
func (rt *Runtime) Abort(err error) bool {
	rt.failMu.Lock()
	if rt.err != nil {
		rt.failMu.Unlock()
		return false
	}
	rt.err = err
	close(rt.done)
	rt.failMu.Unlock()
	if u := rt.cur.Load(); u != nil {
		u.cancel()
	}
	return true
}

// Err returns the failure the run was aborted with, nil while it is healthy.
func (rt *Runtime) Err() error {
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	return rt.err
}

// Done is closed when the run is aborted.
func (rt *Runtime) Done() <-chan struct{} { return rt.done }

// ---- The work cycle ----

// uow is the state of one unit of work.
type uow struct {
	index   int
	work    any
	stats   *Stats
	streams map[string]*stream
	order   []*stream // Config.Streams order: an Edge's Stream indexes it
	ctxs    []*Copy   // graph filter order, then global copy order
}

func (u *uow) cancel() {
	for _, st := range u.order {
		for _, q := range st.local {
			q.Cancel()
		}
	}
}

// stream is the per-UOW runtime state of one logical stream.
type stream struct {
	spec   StreamSpec
	index  int      // position in Config.Streams: the stream's Edge coordinate
	hosts  []string // consumer copy-set hosts, placement order
	copies []int    // consumer copies per host
	queues []Queue  // one per copy set; nil where the set is remote
	local  []Queue  // the non-nil queues
	here   Queue    // Config.Host's own copy set's queue, nil if none
	// acks holds, per producer global copy index, the ack queue of that
	// copy's writer; nil for remote producers and ack-free policies.
	acks      []AckQueue
	counts    *Counts    // per-target deliveries, shared by producer copies
	producers *Countdown // end-of-work: the last producer closes the queues
	writers   []*StreamWriter
	stats     *StreamStats
	m         streamMetrics

	// DeclareBuffer bounds {min, max} gathered during Init, and the size
	// resolved from them.
	declMu   sync.Mutex
	decl     [2]int
	bufBytes int

	// closeMu orders the end-of-work close against Inject: a stale or
	// duplicated producer-done marker can close the queues while a peer's
	// buffer is still arriving, and a send on a closed channel panics.
	closeMu sync.RWMutex
	closed  bool
}

// Declare folds one DeclareBuffer disclosure into the bounds d = {min,
// max}: the largest minimum and the smallest positive maximum win. The
// runtime applies it per stream, the distributed coordinator across hosts.
func Declare(d [2]int, minBytes, maxBytes int) [2]int {
	if minBytes > d[0] {
		d[0] = minBytes
	}
	if maxBytes > 0 && (d[1] == 0 || maxBytes < d[1]) {
		d[1] = maxBytes
	}
	return d
}

// ResolveSizes chooses every stream's buffer size from the gathered
// declarations: def (DefaultBufferBytes when not positive) clamped into the
// stream's declared bounds.
func ResolveSizes(streams []StreamSpec, decls map[string][2]int, def int) map[string]int {
	if def <= 0 {
		def = DefaultBufferBytes
	}
	sizes := make(map[string]int, len(streams))
	for _, sp := range streams {
		d := decls[sp.Name]
		sizes[sp.Name] = max(def, d[0])
		if d[1] > 0 {
			sizes[sp.Name] = min(sizes[sp.Name], d[1])
		}
	}
	return sizes
}

// producerDone records one finished producer copy; the last one closes the
// stream's local queues.
func (st *stream) producerDone() {
	if !st.producers.Done() {
		return
	}
	st.closeMu.Lock()
	st.closed = true
	for _, q := range st.local {
		q.Close()
	}
	st.closeMu.Unlock()
}

// Init starts unit of work index: it builds the queues and per-copy
// contexts, runs every local copy's Init concurrently and returns the
// buffer-size bounds they declared, keyed by stream. The whole unit's
// accounting lands in into.
func (rt *Runtime) Init(index int, work any, into *Stats) (map[string][2]int, error) {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	if err := rt.Err(); err != nil {
		return nil, err
	}
	u := &uow{index: index, work: work, stats: into, streams: make(map[string]*stream, len(rt.cfg.Streams))}
	for i, sp := range rt.cfg.Streams {
		st := &stream{
			spec: sp, index: i, stats: into.Streams[sp.Name], m: rt.m.streams[sp.Name],
			producers: NewCountdown(len(rt.hostOf[sp.From])),
			acks:      make([]AckQueue, len(rt.hostOf[sp.From])),
		}
		for _, e := range rt.entries[sp.To] {
			st.hosts = append(st.hosts, e.Host)
			st.copies = append(st.copies, e.Copies)
			var q Queue
			if rt.local(e.Host) {
				q = rt.cfg.Clock.NewQueue(sp.Name, e.Host, rt.qcap)
				st.local = append(st.local, q)
				if e.Host == rt.cfg.Host {
					st.here = q
				}
			}
			st.queues = append(st.queues, q)
		}
		st.counts = NewCounts(len(st.hosts))
		u.streams[sp.Name] = st
		u.order = append(u.order, st)
	}
	for _, name := range rt.cfg.Filters {
		fs := into.size(name, len(rt.hostOf[name]))
		for _, in := range rt.copies[name] {
			u.ctxs = append(u.ctxs, rt.newCopy(u, in, fs))
		}
	}
	rt.cur.Store(u)
	if rt.Err() != nil {
		u.cancel() // an Abort raced the build and saw the previous unit
	}

	if err := rt.phase(u, "init", func(c *Copy) error { return c.in.filter.Init(c) }); err != nil {
		return nil, err
	}
	decls := make(map[string][2]int)
	for _, st := range u.order {
		if st.decl != [2]int{} {
			decls[st.spec.Name] = st.decl
		}
	}
	return decls, nil
}

// Process runs every local copy's Process concurrently with the resolved
// buffer sizes, propagating end-of-work: when the last producer copy of a
// stream finishes, its copy-set queues close. The first failing copy
// aborts the rest.
func (rt *Runtime) Process(sizes map[string]int) error {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	u := rt.cur.Load()
	if u == nil {
		return fmt.Errorf("%s: Process before Init", rt.cfg.Engine)
	}
	for name, st := range u.streams {
		st.bufBytes = sizes[name]
	}
	err := rt.phase(u, "process", func(c *Copy) error { return c.in.filter.Process(c) })
	// Folded before any error return, so a failed run still reports what
	// was delivered.
	for _, st := range u.order {
		st.counts.Fold(st.hosts, st.stats.PerTargetHost)
	}
	return err
}

// Finalize runs every local copy's Finalize concurrently, completing the
// unit of work, and returns the Stats it accounted into.
func (rt *Runtime) Finalize() (*Stats, error) {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	u := rt.cur.Load()
	if u == nil {
		return nil, fmt.Errorf("%s: Finalize before Init", rt.cfg.Engine)
	}
	return u.stats, rt.phase(u, "finalize", func(c *Copy) error { return c.in.filter.Finalize(c) })
}

// RunUOW runs one unit of work's three phases back to back, resolving the
// buffer sizes from Config.BufferBytes in between.
func (rt *Runtime) RunUOW(index int, work any, into *Stats) error {
	decls, err := rt.Init(index, work, into)
	if err != nil {
		return err
	}
	if err := rt.Process(ResolveSizes(rt.cfg.Streams, decls, rt.cfg.BufferBytes)); err != nil {
		return err
	}
	_, err = rt.Finalize()
	return err
}

// Run executes the units of work in order (one nil unit when uows is
// empty), accounting into into. Copy-set membership changes in one way
// only: before unit i, the schedule's steps due at that boundary
// (elastic.StepsAt) are applied to the effective placement, the runtime is
// re-placed and the change is published (elastic.RecordScaleDiff). Each
// unit's time and the run's total are measured on the Clock. The engine
// validates the schedule first.
func (rt *Runtime) Run(uows []any, schedule []elastic.ScaleStep, into *Stats) error {
	if len(uows) == 0 {
		uows = []any{nil}
	}
	now := rt.cfg.Clock.Now
	start := now()
	for i, work := range uows {
		if due := elastic.StepsAt(schedule, i); len(due) > 0 {
			old := rt.placement
			next := elastic.Apply(old, due)
			if err := rt.Place(next); err != nil {
				return err
			}
			elastic.RecordScaleDiff(rt.cfg.Obs, old, next, i)
		}
		t0 := now()
		if err := rt.RunUOW(i, work, into); err != nil {
			return err
		}
		into.PerUOWSeconds = append(into.PerUOWSeconds, now()-t0)
	}
	into.WallSeconds += now() - start
	return nil
}

// phase runs one phase of every local copy, each on its own thread, with
// panic containment and time accounting: wall time in the phase, minus time
// blocked on streams, is busy time (so Init and Finalize work counts as
// busy). Process is also bracketed by trace events and followed by the cost
// model's drain and end-of-work propagation. A failing copy aborts the run.
func (rt *Runtime) phase(u *uow, label string, call func(*Copy) error) error {
	clock, process := rt.cfg.Clock, label == "process"
	clockErr := clock.Run(len(u.ctxs),
		func(i int) string { // virtual-clock process names
			in := u.ctxs[i].in
			if process {
				return fmt.Sprintf("%s#%d@%s", in.name, in.index, in.host)
			}
			return fmt.Sprintf("%s-%s#%d", label, in.name, in.index)
		},
		func(i int, th Thread) {
			c := u.ctxs[i]
			c.th = th
			if process {
				c.emit(obs.KindProcessStart)
			}
			t0 := clock.Now()
			err := c.contain(label, call)
			if process && rt.cost != nil {
				rt.cost.Drain(c)
			}
			wall := clock.Now() - t0
			if process {
				c.emit(obs.KindProcessEnd)
			}
			// A buffer's transfer time is time the copy could not compute:
			// it counts as write-blocked.
			k := c.in.index
			c.fs.WallSeconds[k] += wall
			c.fs.BusySeconds[k] += wall - c.readBlocked - c.writeBlocked - c.net
			c.fs.ReadBlockedSeconds[k] += c.readBlocked
			c.fs.WriteBlockedSeconds[k] += c.writeBlocked + c.net
			c.readBlocked, c.writeBlocked, c.net = 0, 0, 0
			if process {
				c.endOfWork()
			}
			if err != nil {
				rt.Abort(err)
			}
		})
	if err := rt.Err(); err != nil {
		return err
	}
	return clockErr // the clock's own failure: a simulated deadlock
}

// ---- Inbound port: the twin of Remote ----
//
// Messages from a unit of work other than the one in flight are stale —
// streams repeat every unit, so a late acknowledgment would corrupt the new
// unit's demand counts — and are dropped, as are out-of-range streams.

func (rt *Runtime) inbound(uowIdx, stream int) *stream {
	u := rt.cur.Load()
	if u == nil || u.index != uowIdx || stream < 0 || stream >= len(u.order) {
		return nil
	}
	return u.order[stream]
}

// Inject enqueues a buffer that arrived from another host on this host's
// copy-set queue, blocking while it is full (transport backpressure). It
// reports false when the buffer was not taken — stale, cancelled, or past
// end-of-work — and release is then the caller's to call.
func (rt *Runtime) Inject(e Edge, b Buffer, ackEvery int, release func()) bool {
	st := rt.inbound(e.UOW, e.Stream)
	if st == nil || st.here == nil || e.From < 0 || e.From >= len(st.acks) {
		return false
	}
	st.closeMu.RLock()
	defer st.closeMu.RUnlock()
	if st.closed {
		return false
	}
	d := Delivery{Buf: b, From: e.From, Target: e.Target, AckEvery: ackEvery, Release: release}
	if ok, _ := st.here.Put(nil, d, nil); !ok {
		return false
	}
	// Copy -1: arrival on the host's shared copy-set queue — the consuming
	// copy is only decided at dequeue time.
	rt.cfg.Obs.Emit(obs.Event{Kind: obs.KindEnqueue, Filter: st.spec.To, Copy: -1, Host: rt.cfg.Host,
		Stream: st.spec.Name, Target: rt.cfg.Host, Bytes: b.Size, UOW: e.UOW, Note: "rx"})
	return true
}

// ProducerDone records that one producer copy on another host finished the
// unit of work on stream (an index into Config.Streams).
func (rt *Runtime) ProducerDone(uowIdx, stream int) {
	if st := rt.inbound(uowIdx, stream); st != nil {
		st.producerDone()
	}
}

// Ack delivers an acknowledgment of n buffers from another host to local
// producer copy e.From's window, dropping out-of-range coordinates and
// overflow (conservative: the window then reads fuller than it is).
func (rt *Runtime) Ack(e Edge, n int) {
	st := rt.inbound(e.UOW, e.Stream)
	if st == nil || e.From < 0 || e.From >= len(st.acks) || e.Target < 0 || e.Target >= len(st.hosts) {
		return
	}
	if aq := st.acks[e.From]; aq != nil {
		aq.Offer(e.Target, n)
	}
}
