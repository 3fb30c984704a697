package isoviz

import (
	"encoding/json"
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/volume"
)

// Distributed-worker registrations: these builders let any process that
// imports isoviz serve as a dist worker for the isosurface application.
// The coordinator ships only filter kinds and parameters; chunk sources
// are reconstructed worker-side (a synthetic field from its seed, or an
// on-disk store from its directory).

// FieldREParams parameterizes an RE filter over a synthetic field source
// for distributed runs.
type FieldREParams struct {
	Seed       int64
	Plumes     int
	GX, GY, GZ int
	BX, BY, BZ int
}

// StoreREParams parameterizes an RE filter over an on-disk store.
// Pushdown/Pred enable near-storage predicate pruning: the params travel in
// the session setup frame, so the pruning decision executes on the worker
// that owns the store and pruned chunks never cross the network.
type StoreREParams struct {
	Dir      string
	Pushdown bool              `json:",omitempty"`
	Pred     dataset.Predicate `json:",omitempty"`
}

// Distributed filter kind names.
const (
	KindREField  = "isoviz.RE-field"
	KindREStore  = "isoviz.RE-store"
	KindRasterAP = "isoviz.Ra-ap"
	KindRasterZB = "isoviz.Ra-zb"
	KindMerge    = "isoviz.M"
)

func init() {
	// View is the unit-of-work descriptor (gob, once per unit of work); the
	// per-buffer payloads that cross hosts in the RE–Ra–M graphs ship through
	// their wire codecs (codec.go). Voxels never leave RE's fusion.
	dist.RegisterPayload(View{})
	dist.RegisterCodec(codecTriBatch, TriBatch{}, triBatchCodec{})
	dist.RegisterCodec(codecPixBatch, PixBatch{}, pixBatchCodec{})
	dist.RegisterCodec(codecZChunk, ZChunk{}, zChunkCodec{})

	dist.RegisterFilter(KindREField, func(params []byte) (core.Filter, error) {
		var p FieldREParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("isoviz: bad RE-field params: %w", err)
		}
		src := NewFieldSource(volume.NewPlumeField(p.Seed, p.Plumes), p.GX, p.GY, p.GZ, p.BX, p.BY, p.BZ)
		return fuseRE(&ReadFilter{Source: src, Assign: AssignByCopy(src.Chunks()), Out: StreamVoxels}), nil
	})
	dist.RegisterFilter(KindREStore, func(params []byte) (core.Filter, error) {
		var p StoreREParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("isoviz: bad RE-store params: %w", err)
		}
		st, err := dataset.Open(p.Dir)
		if err != nil {
			return nil, err
		}
		src := &StoreSource{St: st}
		return fuseRE(&storeRE{st: st, ReadFilter: &ReadFilter{
			Source: src, Assign: AssignByCopy(src.Chunks()), Out: StreamVoxels,
			Pushdown: p.Pushdown, Pred: p.Pred,
		}}), nil
	})
	dist.RegisterFilter(KindRasterAP, func([]byte) (core.Filter, error) {
		return &RasterAPFilter{In: StreamTriangles, Out: StreamPixels}, nil
	})
	dist.RegisterFilter(KindRasterZB, func([]byte) (core.Filter, error) {
		return &RasterZFilter{In: StreamTriangles, Out: StreamPixels}, nil
	})
	dist.RegisterFilter(KindMerge, func([]byte) (core.Filter, error) {
		return &MergeFilter{Ins: []string{StreamPixels}}, nil
	})
}

// fuseRE completes the RE filter of the distributed graphs: read fused
// with extraction over the in-memory voxel stream.
func fuseRE(read core.Filter) core.Filter {
	return core.Fuse(read, &ExtractFilter{In: StreamVoxels, Out: StreamTriangles}, StreamVoxels)
}

// storeRE is the read stage of the RE filter KindREStore builds. It opened
// the store, so it owns it: the copy runtime calls Close when it retires the
// copy, and the fusion forwards it (a Source a caller hands to a ReadFilter
// stays the caller's to close).
type storeRE struct {
	*ReadFilter
	st *dataset.Store
}

func (f *storeRE) Close() error { return f.st.Close() }

// DistGraphField builds a GraphSpec for the RE–Ra–M pipeline over a
// synthetic field source.
func DistGraphField(p FieldREParams, alg Algorithm) (dist.GraphSpec, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return dist.GraphSpec{}, err
	}
	return distGraphRE(KindREField, raw, alg), nil
}

// DistGraphStore builds a GraphSpec for the RE–Ra–M pipeline over an
// on-disk store every worker can open. The params — including the pushdown
// predicate — ship in the session setup frame, so each RE copy prunes
// against its local summary sidecar before reading.
func DistGraphStore(p StoreREParams, alg Algorithm) (dist.GraphSpec, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return dist.GraphSpec{}, err
	}
	return distGraphRE(KindREStore, raw, alg), nil
}

func distGraphRE(kind string, params []byte, alg Algorithm) dist.GraphSpec {
	raster := KindRasterAP
	if alg == ZBuffer {
		raster = KindRasterZB
	}
	return dist.GraphSpec{
		Filters: []dist.FilterSpec{
			{Name: "RE", Kind: kind, Params: params},
			{Name: "Ra", Kind: raster},
			{Name: "M", Kind: KindMerge},
		},
		Streams: []core.StreamSpec{
			{Name: StreamTriangles, From: "RE", To: "Ra"},
			{Name: StreamPixels, From: "Ra", To: "M"},
		},
	}
}
