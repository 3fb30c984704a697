package core

import (
	"testing"

	"datacutter/internal/elastic"
	"datacutter/internal/leakcheck"
	"datacutter/internal/obs"
)

// TestScaleScheduleRescalesBetweenUOWs drives a 3-UOW pipeline through a
// seeded scale-up then scale-down of the doubler's copy set and checks
// conservation of all deliveries plus the emitted elastic metrics/events.
func TestScaleScheduleRescalesBetweenUOWs(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(100)
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("D", "h0", 1).
		Place("D", "h1", 1).
		Place("C", "h0", 1)
	ring := obs.NewRingSink(8192)
	o := obs.New(ring, nil)
	r, err := NewRunner(g, pl, Options{
		UOWs: []any{0, 1, 2},
		Obs:  o,
		ScaleSchedule: []elastic.ScaleStep{
			{BeforeUOW: 1, Filter: "D", Host: "h1", Copies: 3}, // scale up
			{BeforeUOW: 2, Filter: "D", Host: "h1", Copies: 1}, // scale down
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 3 * 100; len(*got) != want {
		t.Fatalf("collected %d values across 3 UOWs, want %d", len(*got), want)
	}
	reg := o.Registry()
	if v := reg.Counter(elastic.MetricCopiesAdded).Value(); v != 2 {
		t.Fatalf("copies_added = %d, want 2", v)
	}
	if v := reg.Counter(elastic.MetricCopiesRemoved).Value(); v != 2 {
		t.Fatalf("copies_removed = %d, want 2", v)
	}
	if v := reg.Gauge(elastic.GaugeCopysetSize + ".D.h1").Value(); v != 1 {
		t.Fatalf("copyset_size gauge = %d, want 1", v)
	}
	var ups, downs int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindScaleUp:
			ups++
			if e.Filter != "D" || e.Host != "h1" || e.Copy != 3 || e.UOW != 1 {
				t.Fatalf("scale-up event: %+v", e)
			}
		case obs.KindScaleDown:
			downs++
			if e.Copy != 1 || e.UOW != 2 {
				t.Fatalf("scale-down event: %+v", e)
			}
		}
	}
	if ups != 1 || downs != 1 {
		t.Fatalf("scale events up=%d down=%d, want 1/1", ups, downs)
	}
	// The runner's placement reflects the final effective plan.
	if n := len(r.Instances("D")); n != 2 {
		t.Fatalf("final D instances = %d, want 2", n)
	}
}

// TestRescalePreservesUntouchedInstances checks that a rescale of one
// filter leaves other filters' instances (and their accumulated state)
// alone, and that surviving slots of the scaled filter keep their
// instances.
func TestRescalePreservesUntouchedInstances(t *testing.T) {
	leakcheck.Check(t)
	g, got := pipelineGraph(10)
	pl := NewPlacement().
		Place("S", "h0", 1).
		Place("D", "h0", 2).
		Place("C", "h0", 1)
	r, err := NewRunner(g, pl, Options{
		UOWs: []any{0, 1},
		ScaleSchedule: []elastic.ScaleStep{
			{BeforeUOW: 1, Filter: "D", Host: "h0", Copies: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srcBefore := r.Instances("S")[0]
	dBefore := r.Instances("D")
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Instances("S")[0] != srcBefore {
		t.Fatal("untouched filter's instance was replaced")
	}
	dAfter := r.Instances("D")
	for i, f := range dBefore {
		if dAfter[i] != f {
			t.Fatalf("surviving D instance %d was replaced", i)
		}
	}
	if len(dAfter) != 3 {
		t.Fatalf("D instances after scale-up = %d, want 3", len(dAfter))
	}
	if len(*got) != 20 {
		t.Fatalf("collected %d, want 20", len(*got))
	}
	// Stats slices grew to the peak copy count.
	fs := r.stats.Filters["D"]
	if fs.Copies != 3 || len(fs.BusySeconds) != 3 {
		t.Fatalf("stats: copies=%d busy=%d", fs.Copies, len(fs.BusySeconds))
	}
}

func TestScaleScheduleValidation(t *testing.T) {
	g, _ := pipelineGraph(1)
	pl := NewPlacement().Place("S", "h0", 1).Place("D", "h0", 1).Place("C", "h0", 1)
	r, err := NewRunner(g, pl, Options{ScaleSchedule: []elastic.ScaleStep{
		{BeforeUOW: 1, Filter: "nope", Host: "h0", Copies: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("unknown filter in scale schedule accepted")
	}
	r, err = NewRunner(g, pl, Options{ScaleSchedule: []elastic.ScaleStep{
		{BeforeUOW: 0, Filter: "D", Host: "h0", Copies: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("BeforeUOW 0 accepted")
	}
}
