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
// the graph pipelineGraph builds must marshal to the same bytes as the
// RE–Ra–M spec spelled out below, every filter an isoviz.group filter whose
// params name the grouping, the algorithm, the filter and — for RE — its
// source, so a change to what a server (or its journal) reads is deliberate.
func TestPipelineGraphWireCompatible(t *testing.T) {
	store := isoviz.StoreREParams{Dir: "/data/plume", Pushdown: true}
	field := isoviz.FieldREParams{Seed: 2002, Plumes: 5, GX: 17, GY: 17, GZ: 17, BX: 4, BY: 4, BZ: 4}
	for _, tc := range []struct {
		name  string
		store isoviz.StoreREParams
		re    string
	}{
		{"store", store, `{"Config":1,"Alg":1,"Filter":"RE","Store":{"Dir":"/data/plume","Pushdown":true,"Pred":{}}}`},
		{"field", isoviz.StoreREParams{}, `{"Config":1,"Alg":1,"Filter":"RE","Field":{"Seed":2002,"Plumes":5,"GX":17,"GY":17,"GZ":17,"BX":4,"BY":4,"BZ":4}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spelled := dist.GraphSpec{
				Filters: []dist.FilterSpec{
					{Name: "RE", Kind: "isoviz.group", Params: []byte(tc.re)},
					{Name: "Ra", Kind: "isoviz.group", Params: []byte(`{"Config":1,"Alg":1,"Filter":"Ra"}`)},
					{Name: "M", Kind: "isoviz.group", Params: []byte(`{"Config":1,"Alg":1,"Filter":"M"}`)},
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
			for i, f := range built.Filters {
				if i < len(spelled.Filters) && !bytes.Equal(f.Params, spelled.Filters[i].Params) {
					t.Errorf("filter %s params:\n got %s\nwant %s", f.Name, f.Params, spelled.Filters[i].Params)
				}
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
