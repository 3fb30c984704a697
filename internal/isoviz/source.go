package isoviz

import (
	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/obs"
	"datacutter/internal/volume"
)

// ChunkSource supplies volume chunks to read filters. Implementations: a
// field sampled on demand (in-memory synthetic storage) or an on-disk
// chunk store. Load hands over the volume it returns: the extract stage
// recycles it (volume.Recycle) once it has walked it, so a source must not
// keep or share it.
type ChunkSource interface {
	Chunks() int
	Block(i int) volume.Block
	Load(i int, timestep int) (*volume.Volume, error)
}

// FieldSource samples a synthetic field on demand — the in-memory stand-in
// for disk storage, used by tests and examples.
type FieldSource struct {
	Fld    volume.Field
	Blocks []volume.Block
}

// NewFieldSource partitions a (gx,gy,gz) grid into bx*by*bz chunks backed
// by field sampling.
func NewFieldSource(f volume.Field, gx, gy, gz, bx, by, bz int) *FieldSource {
	return &FieldSource{Fld: f, Blocks: volume.Partition(gx, gy, gz, bx, by, bz)}
}

// Chunks implements ChunkSource.
func (s *FieldSource) Chunks() int { return len(s.Blocks) }

// Block implements ChunkSource.
func (s *FieldSource) Block(i int) volume.Block { return s.Blocks[i] }

// Load implements ChunkSource.
func (s *FieldSource) Load(i, timestep int) (*volume.Volume, error) {
	v := volume.Borrow(s.Blocks[i])
	volume.FillBlock(s.Fld, v, float64(timestep)) // sets every sample
	return v, nil
}

// StoreSource reads chunks from an on-disk dataset store. Reads are
// synchronous: storage overlaps compute through the pipeline itself, as a
// read copy runs ahead of its consumers by its queue capacity.
type StoreSource struct {
	St *dataset.Store
}

// Chunks implements ChunkSource.
func (s *StoreSource) Chunks() int { return s.St.DS.Chunks() }

// Block implements ChunkSource.
func (s *StoreSource) Block(i int) volume.Block { return s.St.DS.Block(i) }

// Load implements ChunkSource.
func (s *StoreSource) Load(i, timestep int) (*volume.Volume, error) {
	return s.St.ReadChunk(i, timestep)
}

// Prune implements PrunableSource by delegating to the store's summary
// index (dataset.Store.Prune).
func (s *StoreSource) Prune(chunks []int, timestep int, pred dataset.Predicate) []int {
	return s.St.Prune(chunks, timestep, pred)
}

// SetObserver forwards the engine's observer to the store so pushdown
// metrics (dataset.chunks_pruned, dataset.bytes_skipped) are published.
func (s *StoreSource) SetObserver(o *obs.Observer) { s.St.SetObserver(o) }

// PrunableSource is a ChunkSource whose storage tier can evaluate a
// predicate over chunk ids without reading chunk data. Read filters with
// Pushdown enabled consult it before reading any chunk; sources that cannot
// prune (e.g. FieldSource) simply don't implement it and every chunk is
// read, which is always correct.
type PrunableSource interface {
	ChunkSource
	Prune(chunks []int, timestep int, pred dataset.Predicate) []int
}

// forwardObserver hands the engine's observer to a source that carries
// instrumentation (StoreSource does; FieldSource doesn't). Read filters use
// it to implement core.ObserverSetter without knowing the source type.
func forwardObserver(src ChunkSource, o *obs.Observer) {
	if s, ok := src.(interface{ SetObserver(*obs.Observer) }); ok {
		s.SetObserver(o)
	}
}

// pruneChunks applies pushdown for a read filter: the view's iso-value is
// compiled into a predicate, intersected with the filter's extra predicate,
// and evaluated by the source's storage tier. Disabled pushdown or an
// unprunable source returns chunks unchanged.
func pruneChunks(src ChunkSource, chunks []int, view View, extra dataset.Predicate, enabled bool) []int {
	if !enabled {
		return chunks
	}
	ps, ok := src.(PrunableSource)
	if !ok {
		return chunks
	}
	return ps.Prune(chunks, view.Timestep, dataset.IsoPredicate(view.Iso).And(extra))
}

// Assign decides which chunks a given read-filter copy retrieves. The
// paper's placement puts a read copy on each storage node to read the node's
// local files; these helpers reproduce that and a simple modulo fallback.
type Assign func(ctx core.Ctx) []int

// AssignByCopy deals chunks round-robin over the copies of the read filter
// (chunk i goes to copy i mod totalCopies).
func AssignByCopy(nchunks int) Assign {
	return func(ctx core.Ctx) []int {
		var out []int
		for i := ctx.CopyIndex(); i < nchunks; i += ctx.TotalCopies() {
			out = append(out, i)
		}
		return out
	}
}

// AssignByDistribution gives each read copy the chunks stored on its host
// (per the dataset's file distribution). When several read copies share a
// host, they deal the host's chunks round-robin using their rank among the
// host's copies, derived from the placement.
func AssignByDistribution(ds *dataset.Dataset, dist *dataset.Distribution, pl *core.Placement, filterName string) Assign {
	// Precompute the global copy index ranges per host, mirroring the
	// engines' copy numbering (placement order).
	type hostRange struct {
		host  string
		first int
		n     int
	}
	var ranges []hostRange
	idx := 0
	for _, e := range pl.Of(filterName) {
		ranges = append(ranges, hostRange{e.Host, idx, e.Copies})
		idx += e.Copies
	}
	return func(ctx core.Ctx) []int {
		var rank, n int
		for _, r := range ranges {
			if ctx.CopyIndex() >= r.first && ctx.CopyIndex() < r.first+r.n {
				rank = ctx.CopyIndex() - r.first
				n = r.n
				break
			}
		}
		if n == 0 {
			// The running placement does not match the one this assignment
			// was built from; reading nothing is safer than guessing (and a
			// zero stride would loop forever).
			return nil
		}
		hostChunks := dataset.ChunksOnHost(ds, dist, ctx.Host())
		var out []int
		for i := rank; i < len(hostChunks); i += n {
			out = append(out, hostChunks[i])
		}
		return out
	}
}
