package isoviz

import (
	"fmt"
	"strings"
	"testing"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/leakcheck"
	"datacutter/internal/simrt"
)

// Fusing two stages keeps a stream in memory; it must not change what the
// fused filter sends downstream. At one copy per filter buffer order is
// fixed, so the streams leaving a fusion are comparable count for count:
// RERa–M ships the pixels of R–ERa–M, RE–Ra–M the triangles and pixels of
// R–E–Ra–M — for both algorithms, for the real filters on core and for the
// model filters on simrt. (The hand-written RERa active-pixel filter
// flushed its WPA once, at end-of-work, where ERa flushed per chunk.)
func TestFusionLeavesDownstreamTrafficUnchanged(t *testing.T) {
	leakcheck.Check(t)
	onePerFilter := func(g *core.Graph) *core.Placement {
		pl := core.NewPlacement()
		for _, f := range g.Filters() {
			pl.Place(f, "n0", 1)
		}
		return pl
	}
	src, ds := testSource(), testDataset(t)
	engines := map[string]func(Config, Algorithm) *core.Stats{
		"core": func(cfg Config, alg Algorithm) *core.Stats {
			spec := PipelineSpec{Config: cfg, Alg: alg, Source: src, Assign: AssignByCopy(src.Chunks())}
			_, st := runPipeline(t, spec, onePerFilter(spec.Build()), core.Options{UOWs: []any{testView(80)}})
			return st
		},
		"simrt": func(cfg Config, alg Algorithm) *core.Stats {
			r, cl := simSetup(t, ds, cfg, alg, core.RoundRobin(), 1, 0)
			st, _ := r.run(t, cl, DefaultView(0.35))
			return st
		},
	}
	pairs := []struct {
		split, fused Config
		streams      []string
	}{
		{ExtractRaster, CombinedAll, []string{StreamPixels}},
		{FullPipeline, ReadExtract, []string{StreamTriangles, StreamPixels}},
	}
	for engine, run := range engines {
		for _, alg := range []Algorithm{ZBuffer, ActivePixel} {
			for _, p := range pairs {
				t.Run(fmt.Sprintf("%s/%v/%v", engine, alg, p.fused), func(t *testing.T) {
					split, fused := run(p.split, alg), run(p.fused, alg)
					for _, s := range p.streams {
						a, b := split.Streams[s], fused.Streams[s]
						if a.Buffers == 0 || a.Buffers != b.Buffers || a.Bytes != b.Bytes {
							t.Errorf("stream %s: %v sends %d buffers / %d bytes, %v sends %d / %d",
								s, p.split, a.Buffers, a.Bytes, p.fused, b.Buffers, b.Bytes)
						}
					}
				})
			}
		}
	}
}

// A Config outside the four groupings is reported by the engine that is
// handed its graph, for the real and the model builder alike.
func TestUnknownConfigIsABuildError(t *testing.T) {
	bad := Config(7)
	if bad.String() != "Config(7)" || bad.SourceFilter() != "" || bad.WorkerFilter() != "" {
		t.Fatalf("unknown config names itself %q, %q, %q", bad, bad.SourceFilter(), bad.WorkerFilter())
	}
	_, err := core.NewRunner(PipelineSpec{Config: bad}.Build(), core.NewPlacement(), core.Options{})
	if err == nil || !strings.Contains(err.Error(), "isoviz: unknown config 7") {
		t.Fatalf("core.NewRunner: %v", err)
	}
	_, err = simrt.NewRunner(ModelSpec{Config: bad}.Build(), core.NewPlacement(), cluster.New(nil), simrt.Options{})
	if err == nil || !strings.Contains(err.Error(), "isoviz: unknown config 7") {
		t.Fatalf("simrt.NewRunner: %v", err)
	}
}
