package isoviz

import (
	"bytes"
	"fmt"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/leakcheck"
)

// Every grouping renders on dist exactly what it renders on core. Each
// (grouping, algorithm) cell runs on two workers under DD, every filter
// but M with a copy on each host, so each stream crosses a connection
// through its codec — voxels too, where R and E are apart — and the image
// must be byte-identical to core's serial run of the same view.
func TestEveryConfigOnDist(t *testing.T) {
	leakcheck.Check(t)
	p := &framePath{t: t}
	p.startWorkers()
	field := FieldREParams{Seed: 17, Plumes: 4, GX: 33, GY: 33, GZ: 33, BX: 3, BY: 3, BZ: 3}
	src := testSource() // the same field, built locally
	view := testView(64)
	for _, cfg := range []Config{FullPipeline, ReadExtract, ExtractRaster, CombinedAll} {
		for _, alg := range []Algorithm{ZBuffer, ActivePixel} {
			t.Run(fmt.Sprintf("%v/%v", cfg, alg), func(t *testing.T) {
				spec := PipelineSpec{Config: cfg, Alg: alg, Source: src, Assign: AssignByCopy(src.Chunks())}
				pl := core.NewPlacement()
				for _, f := range spec.Build().Filters() {
					pl.Place(f, "h0", 1)
				}
				img, _ := runPipeline(t, spec, pl, core.Options{UOWs: []any{view}})
				want := zBits(img)

				graph, err := cfg.DistGraph(alg, nil, &field)
				if err != nil {
					t.Fatal(err)
				}
				placement := []dist.PlacementEntry{{Filter: "M", Host: "w1", Copies: 1}}
				for _, f := range graph.Filters {
					if f.Name != "M" {
						placement = append(placement,
							dist.PlacementEntry{Filter: f.Name, Host: "w0", Copies: 1},
							dist.PlacementEntry{Filter: f.Name, Host: "w1", Copies: 1})
					}
				}
				if _, err := dist.Run(p.addrs, graph, placement, dist.Options{Policy: "DD"}, []any{view}); err != nil {
					t.Fatal(err)
				}
				m, err := MergeResult(p.workers[1].Instances("M"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(zBits(m.Result()), want) {
					t.Fatal("dist image differs from core's")
				}
			})
		}
	}
}

// A dist worker refuses, at setup, params naming a filter its grouping does
// not have, a grouping that is none of the four, or a source filter with no
// source.
func TestBuildGroupRejectsBadParams(t *testing.T) {
	for name, raw := range map[string]string{
		"unknown filter":   `{"Config":1,"Alg":1,"Filter":"ERa","Field":{}}`,
		"unknown config":   `{"Config":9,"Alg":1,"Filter":"RE","Field":{}}`,
		"source, no input": `{"Config":0,"Alg":0,"Filter":"R"}`,
		"not JSON":         `{"Config":`,
	} {
		if f, err := buildGroup([]byte(raw)); err == nil {
			t.Errorf("%s: built %T", name, f)
		}
	}
}
