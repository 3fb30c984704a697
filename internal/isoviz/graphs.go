package isoviz

import (
	"fmt"
	"strings"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
)

// Algorithm selects the hidden-surface removal scheme.
type Algorithm int

// The two rendering algorithms evaluated in the paper.
const (
	ZBuffer Algorithm = iota
	ActivePixel
)

func (a Algorithm) String() string {
	if a == ZBuffer {
		return "Z-buffer"
	}
	return "Active Pixel"
}

// Config is the filter decomposition (paper Figure 3 plus the fully split
// baseline): a grouping of the producer stages R, E, Ra into filters,
// encoded as the set of streams between them that stay in memory. Each
// group is one filter, named after its stages ("RE", "ERa", "RERa") and
// built by fusing them with core.Fuse; the streams that are left connect
// the filters, and M always stands alone.
type Config uint8

const (
	fuseVoxels    Config = 1 << iota // R and E share a filter
	fuseTriangles                    // E and Ra share a filter
)

// The evaluated configurations.
const (
	// FullPipeline is R–E–Ra–M: every stage its own filter.
	FullPipeline Config = 0
	// ReadExtract is RE–Ra–M: read+extract fused, raster separate.
	ReadExtract = fuseVoxels
	// ExtractRaster is R–ERa–M: read separate, extract+raster fused.
	ExtractRaster = fuseTriangles
	// CombinedAll is RERa–M: read+extract+raster fused (SPMD-like, the
	// configuration closest to ADR's model: a single combined filter allows
	// no demand-driven distribution among copies, paper §4.3).
	CombinedAll = fuseVoxels | fuseTriangles
)

// stages are the producer side of the pipeline in order, each with the
// stream it writes; Config bit i keeps stages[i].out in memory.
var stages = [...]struct{ name, out string }{
	{"R", StreamVoxels}, {"E", StreamTriangles}, {"Ra", StreamPixels},
}

// group is one filter of a grouping: stages[lo:hi] under their joint name.
type group struct {
	name   string
	lo, hi int
}

// groups returns the grouping's filters in pipeline order, nil for a value
// that is none of the four configurations.
func (c Config) groups() []group {
	if c > CombinedAll {
		return nil
	}
	gs := []group{{}}
	for i, st := range stages {
		g := &gs[len(gs)-1]
		g.name, g.hi = g.name+st.name, i+1
		if i+1 < len(stages) && c&(1<<i) == 0 {
			gs = append(gs, group{lo: i + 1})
		}
	}
	return gs
}

func (c Config) String() string {
	gs := c.groups()
	if gs == nil {
		return fmt.Sprintf("Config(%d)", uint8(c))
	}
	var b strings.Builder
	for _, g := range gs {
		b.WriteString(g.name + "-")
	}
	return b.String() + "M"
}

// SourceFilter returns the name of the filter that reads storage in this
// configuration (the one whose placement should cover the data nodes).
func (c Config) SourceFilter() string {
	if gs := c.groups(); gs != nil {
		return gs[0].name
	}
	return ""
}

// WorkerFilter returns the name of the compute-heavy filter whose copies
// absorb raster load ("" when it is fused into the source filter).
func (c Config) WorkerFilter() string {
	if gs := c.groups(); len(gs) > 1 {
		return gs[len(gs)-1].name
	}
	return ""
}

// build assembles the grouping's graph from one constructor per stage and
// one for M: the one builder behind PipelineSpec.Build and ModelSpec.Build.
// An unknown grouping yields a graph whose Validate — so every engine's
// NewRunner — returns the error.
func (c Config) build(stage [len(stages)]core.FilterFactory, merge core.FilterFactory) *core.Graph {
	g := core.NewGraph()
	gs := c.groups()
	if gs == nil {
		return g.Fail(fmt.Errorf("isoviz: unknown config %d", uint8(c)))
	}
	for i, grp := range gs {
		g.AddFilter(grp.name, func() core.Filter {
			f := stage[grp.lo]()
			for k := grp.lo + 1; k < grp.hi; k++ {
				f = core.Fuse(f, stage[k](), stages[k-1].out)
			}
			return f
		})
		to := "M"
		if i+1 < len(gs) {
			to = gs[i+1].name
		}
		g.Connect(grp.name, to, stages[grp.hi-1].out)
	}
	return g.AddFilter("M", merge)
}

// PipelineSpec assembles an isosurface rendering graph.
type PipelineSpec struct {
	Config Config
	Alg    Algorithm
	Source ChunkSource
	Assign Assign
	// Pushdown enables near-storage predicate pruning in the source-side
	// filter: each view's iso-value (ANDed with Pred) is checked against the
	// source's chunk summaries and provably contribution-free chunks are
	// skipped before any read. Requires a PrunableSource to take effect.
	Pushdown bool
	// Pred is an extra predicate (e.g. a spatial box) intersected with the
	// per-view iso predicate when Pushdown is on.
	Pred dataset.Predicate
}

// Build constructs the filter graph for the spec. The merge filter is
// always named "M" and each graph's streams use the Stream* constants.
func (s PipelineSpec) Build() *core.Graph {
	return s.Config.build([...]core.FilterFactory{
		func() core.Filter {
			return &ReadFilter{Source: s.Source, Assign: s.Assign, Out: StreamVoxels, Pushdown: s.Pushdown, Pred: s.Pred}
		},
		func() core.Filter { return &ExtractFilter{In: StreamVoxels, Out: StreamTriangles} },
		func() core.Filter {
			if s.Alg == ZBuffer {
				return &RasterZFilter{In: StreamTriangles, Out: StreamPixels}
			}
			return &RasterAPFilter{In: StreamTriangles, Out: StreamPixels}
		},
	}, func() core.Filter { return &MergeFilter{Ins: []string{StreamPixels}} })
}

// MergeResult retrieves the merge filter (and so the final image) from a
// runner after a run. Works with both engines' Instances method.
func MergeResult(instances []core.Filter) (*MergeFilter, error) {
	if len(instances) != 1 {
		return nil, fmt.Errorf("isoviz: expected exactly one merge copy, got %d", len(instances))
	}
	m, ok := instances[0].(*MergeFilter)
	if !ok {
		return nil, fmt.Errorf("isoviz: filter M is %T", instances[0])
	}
	return m, nil
}
