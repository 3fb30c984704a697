package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dist"
	"datacutter/internal/isoviz"
	"datacutter/internal/jobd"
)

// TestPipelineGraphWireCompatible pins the job spec `dcsubmit -server` POSTs:
// the graph the isoviz builders produce must marshal to the same bytes as the
// filter-by-filter spec dcsubmit spelled out before it called them, so a
// server (or journal) from before the change reads the same job.
func TestPipelineGraphWireCompatible(t *testing.T) {
	store := isoviz.StoreREParams{Dir: "/data/plume", Pushdown: true}
	field := isoviz.FieldREParams{Seed: 2002, Plumes: 5, GX: 17, GY: 17, GZ: 17, BX: 4, BY: 4, BZ: 4}
	for _, tc := range []struct {
		name   string
		store  isoviz.StoreREParams
		kind   string
		params any
	}{
		{"store", store, isoviz.KindREStore, store},
		{"field", isoviz.StoreREParams{}, isoviz.KindREField, field},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			spelled := dist.GraphSpec{
				Filters: []dist.FilterSpec{
					{Name: "RE", Kind: tc.kind, Params: raw},
					{Name: "Ra", Kind: isoviz.KindRasterAP},
					{Name: "M", Kind: isoviz.KindMerge},
				},
				Streams: []core.StreamSpec{
					{Name: isoviz.StreamTriangles, From: "RE", To: "Ra"},
					{Name: isoviz.StreamPixels, From: "Ra", To: "M"},
				},
			}
			built, err := pipelineGraph(tc.store, field)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(jobd.JobSpec{Name: "isoviz", Graph: spelled})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(jobd.JobSpec{Name: "isoviz", Graph: built})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("job spec changed on the wire:\n got %s\nwant %s", got, want)
			}
		})
	}
}
