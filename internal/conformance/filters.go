package conformance

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
)

// Every buffer a conformance pipeline moves carries a provenance identity:
// a source copy writes "F0.2#7" (filter.copyIndex#sequence) and every
// transform that forwards it appends ">"+its name. Identities are unique
// per stream, and the oracle model can predict the exact multiset each
// consumer must receive per unit of work without ever caring how the
// engines scheduled the copies. The identity travels as one of three wire
// shapes (Wire) so dist exercises a registered application codec and both
// built-in payload codecs.

func encodePayload(w Wire, id string) any {
	switch w {
	case WireBytes:
		return []byte(id)
	case WireFloats:
		f := make([]float32, len(id))
		for i := 0; i < len(id); i++ {
			f[i] = float32(id[i])
		}
		return f
	default:
		return id
	}
}

// codecString is the dist codec id of WireString payloads: outside isoviz's
// 256–258, since a worker binary (dcworker) registers both sets.
const codecString uint16 = 512

// stringCodec ships a WireString identity as its bytes.
type stringCodec struct{}

func (stringCodec) Append(dst []byte, v any) ([]byte, error) { return append(dst, v.(string)...), nil }
func (stringCodec) Decode(body []byte) (any, error)          { return string(body), nil }
func (stringCodec) ZeroCopy() bool                           { return false }

// decodePayload recovers the identity from any wire shape. It copies out of
// []byte immediately: on dist that slice aliases a pooled frame buffer that
// is recycled on the consumer's next Read.
func decodePayload(p any) (string, error) {
	switch v := p.(type) {
	case string:
		return v, nil
	case []byte:
		return string(v), nil
	case []float32:
		b := make([]byte, len(v))
		for i, f := range v {
			b[i] = byte(f)
		}
		return string(b), nil
	}
	return "", fmt.Errorf("conformance: unexpected payload type %T", p)
}

// synthSummary derives the deterministic chunk summary of one identity:
// conformance buffers stand in for chunks, so the summary is a pure hash of
// the identity — sources on every engine and the oracle model compute the
// identical summary without coordination. Min is uniform in [0,1) and Max
// in [Min, Min+1), a spread the generator's predicate draw is matched to.
func synthSummary(id string) dataset.ChunkSummary {
	h := fnv.New64a()
	h.Write([]byte(id))
	v := h.Sum64()
	min := float32(v%1024) / 1024
	return dataset.ChunkSummary{
		Min:       min,
		Max:       min + float32((v>>10)%1024)/1024,
		Occupancy: uint32(v % 7),
	}
}

// DeliveryKey identifies one delivered identity at one consumer filter.
type DeliveryKey struct {
	Consumer string
	Stream   string
	UOW      int
	ID       string
}

// EOWKey identifies one end-of-work observation: one consumer copy seeing
// an input stream close for one unit of work.
type EOWKey struct {
	Consumer string
	Stream   string
	UOW      int
}

// PruneKey identifies one pruned identity at one source filter: the owning
// copy evaluated the pushdown predicate and skipped the emission. Pruning
// happens before the buffer reaches any stream, so the key has no stream —
// an identity a source prunes is withheld from every output at once.
type PruneKey struct {
	Source string
	UOW    int
	ID     string
}

// Recorder accumulates what the pipeline's filters actually observed: a
// multiset of delivered identities and a count of end-of-work edges. It is
// shared by every copy of every filter in one run (including the dist
// workers, which live in-process for loopback conformance runs) and is
// what the oracle diffs against the model.
type Recorder struct {
	mu         sync.Mutex
	deliveries map[DeliveryKey]int
	eow        map[EOWKey]int
	pruned     map[PruneKey]int
}

func newRecorder() *Recorder {
	return &Recorder{
		deliveries: map[DeliveryKey]int{},
		eow:        map[EOWKey]int{},
		pruned:     map[PruneKey]int{},
	}
}

func (r *Recorder) delivery(consumer, stream string, uow int, id string) {
	r.mu.Lock()
	r.deliveries[DeliveryKey{consumer, stream, uow, id}]++
	r.mu.Unlock()
}

func (r *Recorder) endOfWork(consumer, stream string, uow int) {
	r.mu.Lock()
	r.eow[EOWKey{consumer, stream, uow}]++
	r.mu.Unlock()
}

func (r *Recorder) prune(source string, uow int, id string) {
	r.mu.Lock()
	r.pruned[PruneKey{source, uow, id}]++
	r.mu.Unlock()
}

// Deliveries returns a copy of the delivered-identity multiset.
func (r *Recorder) Deliveries() map[DeliveryKey]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[DeliveryKey]int, len(r.deliveries))
	for k, v := range r.deliveries {
		out[k] = v
	}
	return out
}

// EOW returns a copy of the end-of-work counts.
func (r *Recorder) EOW() map[EOWKey]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[EOWKey]int, len(r.eow))
	for k, v := range r.eow {
		out[k] = v
	}
	return out
}

// Pruned returns a copy of the pruned-identity multiset.
func (r *Recorder) Pruned() map[PruneKey]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[PruneKey]int, len(r.pruned))
	for k, v := range r.pruned {
		out[k] = v
	}
	return out
}

// ---- the one conformance filter (role-switched) ----

type confFilter struct {
	core.BaseFilter
	name    string
	role    Role
	emit    int
	inputs  []string
	outputs []string
	wires   map[string]Wire
	pred    *dataset.Predicate // pushdown predicate; nil = emit everything
	rec     *Recorder
}

func newConfFilter(s *Spec, f Filter, rec *Recorder) *confFilter {
	cf := &confFilter{name: f.Name, role: f.Role, emit: f.Emit, rec: rec,
		pred: s.Pred, wires: map[string]Wire{}}
	for _, st := range s.inputsOf(f.Name) {
		cf.inputs = append(cf.inputs, st.Name)
	}
	for _, st := range s.outputsOf(f.Name) {
		cf.outputs = append(cf.outputs, st.Name)
		cf.wires[st.Name] = st.Wire
	}
	return cf
}

// chainOf lists what the engines run under f's name: f's conformance filter
// followed by every transform fused into it (s.Fused), in spec —
// topological — order.
func chainOf(s *Spec, f Filter, rec *Recorder) []*confFilter {
	chain := []*confFilter{newConfFilter(s, f, rec)}
	for _, t := range s.Filters {
		if s.fused(t.Name) && s.carrier(t.Name) == f.Name {
			chain = append(chain, newConfFilter(s, t, rec))
		}
	}
	return chain
}

// fuseChain fuses a chain left to right, each link over its single input.
func fuseChain(chain []*confFilter) core.Filter {
	var f core.Filter = chain[0]
	for _, t := range chain[1:] {
		f = core.Fuse(f, t, t.inputs[0])
	}
	return f
}

func (f *confFilter) writeAll(ctx core.Ctx, id string) error {
	for _, out := range f.outputs {
		b := core.Buffer{Payload: encodePayload(f.wires[out], id), Size: len(id) + 16}
		if err := ctx.Write(out, b); err != nil {
			return err
		}
	}
	return nil
}

func (f *confFilter) Process(ctx core.Ctx) error {
	if f.role == RoleSource {
		for i := 0; i < f.emit; i++ {
			id := fmt.Sprintf("%s.%d#%d", f.name, ctx.CopyIndex(), i)
			// Near-storage pushdown: evaluate the predicate against the
			// identity's synthetic summary before emitting, exactly like a
			// store pruning a chunk before reading it. Pruned identities are
			// recorded so the oracle can prove pruned + delivered partition
			// the full multiset.
			if f.pred != nil && !f.pred.MatchSummary(synthSummary(id)) {
				f.rec.prune(f.name, ctx.UOW(), id)
				continue
			}
			if err := f.writeAll(ctx, id); err != nil {
				return err
			}
		}
		return nil
	}
	// Transforms and sinks drain their input streams sequentially. This is
	// deadlock-free because the generator sizes QueueCap above the largest
	// per-stream buffer count: an undrained stream fits entirely in its
	// consumer queue, so no producer ever blocks on it.
	for _, in := range f.inputs {
		for {
			b, ok := ctx.Read(in)
			if !ok {
				break
			}
			id, err := decodePayload(b.Payload)
			if err != nil {
				return fmt.Errorf("%s reading %s: %w", f.name, in, err)
			}
			f.rec.delivery(f.name, in, ctx.UOW(), id)
			if f.role == RoleTransform {
				if err := f.writeAll(ctx, id+">"+f.name); err != nil {
					return err
				}
			}
		}
		f.rec.endOfWork(f.name, in, ctx.UOW())
	}
	return nil
}

// ---- dist registration ----
//
// dist builds filters worker-side from a registered kind plus opaque
// params. Loopback conformance workers live in this process, so the params
// carry a token into a process-global recorder registry instead of trying
// to serialize the Recorder itself.

var (
	tokMu     sync.Mutex
	tokNext   uint64
	recorders = map[uint64]*Recorder{}
)

func registerRecorder(rec *Recorder) uint64 {
	tokMu.Lock()
	defer tokMu.Unlock()
	tokNext++
	recorders[tokNext] = rec
	return tokNext
}

func releaseRecorder(tok uint64) {
	tokMu.Lock()
	defer tokMu.Unlock()
	delete(recorders, tok)
}

func lookupRecorder(tok uint64) *Recorder {
	tokMu.Lock()
	defer tokMu.Unlock()
	return recorders[tok]
}

// distFilterKind is the one registered dist builder for every conformance
// filter; distParams selects role, streams, and recorder.
const distFilterKind = "conformance.filter"

type distParams struct {
	Name    string
	Role    Role
	Emit    int
	Inputs  []string
	Outputs []string
	Wires   map[string]Wire
	Token   uint64
	// Pred rides the setup frame as JSON, like the production StoreREParams
	// path: the pruning decision executes on the worker that owns the
	// source, never on the coordinator.
	Pred *dataset.Predicate `json:",omitempty"`
	// Fused are the transforms fused into this filter (chainOf order).
	Fused []distParams `json:",omitempty"`
}

func init() {
	dist.RegisterCodec(codecString, "", stringCodec{})
	dist.RegisterFilter(distFilterKind, func(params []byte) (core.Filter, error) {
		var p distParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("conformance: bad filter params: %w", err)
		}
		rec := lookupRecorder(p.Token)
		if rec == nil {
			return nil, fmt.Errorf("conformance: no recorder for token %d (non-loopback worker?)", p.Token)
		}
		chain := []*confFilter{p.filter(rec)}
		for _, t := range p.Fused {
			chain = append(chain, t.filter(rec))
		}
		return fuseChain(chain), nil
	})
}

func (p distParams) filter(rec *Recorder) *confFilter {
	return &confFilter{
		name: p.Name, role: p.Role, emit: p.Emit,
		inputs: p.Inputs, outputs: p.Outputs, wires: p.Wires,
		pred: p.Pred, rec: rec,
	}
}

func (f *confFilter) params() distParams {
	return distParams{
		Name: f.name, Role: f.role, Emit: f.emit,
		Inputs: f.inputs, Outputs: f.outputs, Wires: f.wires, Pred: f.pred,
	}
}

// distSpec describes a chain (chainOf) to a dist worker under its head's
// name.
func distSpec(chain []*confFilter, tok uint64) (dist.FilterSpec, error) {
	p := chain[0].params()
	p.Token = tok
	for _, t := range chain[1:] {
		p.Fused = append(p.Fused, t.params())
	}
	params, err := json.Marshal(p)
	if err != nil {
		return dist.FilterSpec{}, err
	}
	return dist.FilterSpec{Name: p.Name, Kind: distFilterKind, Params: params}, nil
}
