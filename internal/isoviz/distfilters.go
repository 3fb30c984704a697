package isoviz

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/obs"
	"datacutter/internal/volume"
)

// Distributed-worker registration: one filter kind lets any process that
// imports isoviz serve every grouping as a dist worker. It builds each filter
// through PipelineSpec.Build, like core and simrt, and opens the source (a
// field from its seed, a store from its directory) for the source filter only.

// FieldREParams parameterizes the source filter over a synthetic field.
type FieldREParams struct {
	Seed       int64
	Plumes     int
	GX, GY, GZ int
	BX, BY, BZ int
}

// StoreREParams parameterizes the source filter over an on-disk store.
// Pushdown/Pred prune chunks near storage, on the worker that owns the
// store, so pruned chunks never cross the network.
type StoreREParams struct {
	Dir      string
	Pushdown bool              `json:",omitempty"`
	Pred     dataset.Predicate `json:",omitempty"`
}

// kindGroup is the dist filter kind of every isoviz filter.
const kindGroup = "isoviz.group"

// groupParams are a kindGroup filter's params: filter Filter of grouping
// Config rendering with Alg, and the source filter's store or field.
type groupParams struct {
	Config Config
	Alg    Algorithm
	Filter string
	Store  *StoreREParams `json:",omitempty"`
	Field  *FieldREParams `json:",omitempty"`
}

func init() {
	// View is the unit-of-work descriptor (gob, once per unit of work); the
	// payloads that cross hosts ship through their wire codecs (codec.go).
	dist.RegisterPayload(View{})
	dist.RegisterCodec(codecTriBatch, TriBatch{}, triBatchCodec{})
	dist.RegisterCodec(codecPixBatch, PixBatch{}, pixBatchCodec{})
	dist.RegisterCodec(codecZChunk, ZChunk{}, zChunkCodec{})
	dist.RegisterCodec(codecVoxelBlock, VoxelBlock{}, voxelBlockCodec{})
	dist.RegisterFilter(kindGroup, buildGroup)
}

// buildGroup is kindGroup's builder: one copy of the named filter.
func buildGroup(raw []byte) (core.Filter, error) {
	var p groupParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("isoviz: bad %s params: %w", kindGroup, err)
	}
	spec := PipelineSpec{Config: p.Config, Alg: p.Alg}
	g := spec.Build() // an unknown Config builds no filters
	if g.Factory(p.Filter) == nil {
		return nil, fmt.Errorf("isoviz: %v has no filter %q", p.Config, p.Filter)
	}
	var st *dataset.Store
	if p.Filter == p.Config.SourceFilter() {
		switch {
		case p.Store != nil:
			var err error
			if st, err = dataset.Open(p.Store.Dir); err != nil {
				return nil, err
			}
			spec.Source, spec.Pushdown, spec.Pred = &StoreSource{St: st}, p.Store.Pushdown, p.Store.Pred
		case p.Field != nil:
			f := p.Field
			spec.Source = NewFieldSource(volume.NewPlumeField(f.Seed, f.Plumes), f.GX, f.GY, f.GZ, f.BX, f.BY, f.BZ)
		default:
			return nil, fmt.Errorf("isoviz: source filter %s of %v has no source", p.Filter, p.Config)
		}
		spec.Assign = AssignByCopy(spec.Source.Chunks())
		g = spec.Build()
	}
	f := g.Factory(p.Filter)()
	if st == nil {
		return f, nil
	}
	return ownsStore{f, st}, nil
}

// ownsStore is a source filter whose builder opened its store: retiring the
// copy closes it (a Source a caller hands to a ReadFilter stays the caller's).
type ownsStore struct {
	core.Filter
	st *dataset.Store
}

func (f ownsStore) Close() error {
	if c, ok := f.Filter.(io.Closer); ok {
		return errors.Join(c.Close(), f.st.Close())
	}
	return f.st.Close()
}

func (f ownsStore) SetObserver(o *obs.Observer) {
	if s, ok := f.Filter.(core.ObserverSetter); ok {
		s.SetObserver(o)
	}
}

// DistGraph describes PipelineSpec{Config: c, Alg: alg}.Build for the dist
// engine, each filter a kindGroup filter. The source filter reads the store
// when store is set, else the field; every worker must reach the store.
func (c Config) DistGraph(alg Algorithm, store *StoreREParams, field *FieldREParams) (dist.GraphSpec, error) {
	g := PipelineSpec{Config: c, Alg: alg}.Build()
	if err := g.Validate(); err != nil {
		return dist.GraphSpec{}, err
	}
	spec := dist.GraphSpec{Streams: g.Streams()}
	for _, name := range g.Filters() {
		p := groupParams{Config: c, Alg: alg, Filter: name}
		if name == c.SourceFilter() {
			p.Store, p.Field = store, field
		}
		raw, err := json.Marshal(p)
		if err != nil {
			return dist.GraphSpec{}, err
		}
		spec.Filters = append(spec.Filters, dist.FilterSpec{Name: name, Kind: kindGroup, Params: raw})
	}
	return spec, nil
}

// DistGraphStore is the RE–Ra–M graph over an on-disk store.
func DistGraphStore(p StoreREParams, alg Algorithm) (dist.GraphSpec, error) {
	return ReadExtract.DistGraph(alg, &p, nil)
}
