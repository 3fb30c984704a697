package elastic

import (
	"reflect"
	"testing"

	"datacutter/internal/obs"
)

// ---- placement: ReplanDead ----

func TestReplanDeadMovesOrphansToWarmHosts(t *testing.T) {
	in := []Entry{
		{Filter: "F", Host: "a", Copies: 2},
		{Filter: "F", Host: "b", Copies: 1},
	}
	out, err := ReplanDead(in, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{Filter: "F", Host: "b", Copies: 3}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	// Input untouched.
	if in[0].Copies != 2 || in[1].Copies != 1 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestReplanDeadNoSurvivors(t *testing.T) {
	in := []Entry{{Filter: "F", Host: "a", Copies: 1}}
	if _, err := ReplanDead(in, map[string]bool{"a": true}); err == nil {
		t.Fatal("want error when every host is dead")
	}
}

func TestReplanDeadIdentityWithoutDeaths(t *testing.T) {
	in := []Entry{
		{Filter: "F", Host: "a", Copies: 1},
		{Filter: "G", Host: "b", Copies: 2},
	}
	out, err := ReplanDead(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("identity replan changed plan: %v", out)
	}
}

// ---- schedule: Apply / EffectivePlacement / StepsAt ----

func basePlacement() []Entry {
	return []Entry{
		{Filter: "F", Host: "a", Copies: 1},
		{Filter: "F", Host: "b", Copies: 2},
		{Filter: "G", Host: "a", Copies: 1},
	}
}

func TestApplySetsAppendsAndRetires(t *testing.T) {
	out := Apply(basePlacement(), []ScaleStep{
		{Filter: "F", Host: "a", Copies: 3},  // set existing
		{Filter: "G", Host: "b", Copies: 2},  // append new entry
		{Filter: "F", Host: "b", Copies: 0},  // retire (F still on a)
		{Filter: "G", Host: "a", Copies: -1}, // retire
	})
	want := []Entry{
		{Filter: "F", Host: "a", Copies: 3},
		{Filter: "G", Host: "b", Copies: 2},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v, want %v", out, want)
	}
}

func TestApplyNeverRetiresLastEntry(t *testing.T) {
	out := Apply([]Entry{{Filter: "F", Host: "a", Copies: 4}},
		[]ScaleStep{{Filter: "F", Host: "a", Copies: 0}})
	want := []Entry{{Filter: "F", Host: "a", Copies: 1}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("last entry retired: %v", out)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	in := basePlacement()
	Apply(in, []ScaleStep{{Filter: "F", Host: "a", Copies: 9}})
	if in[0].Copies != 1 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestEffectivePlacementByBoundary(t *testing.T) {
	steps := []ScaleStep{
		{BeforeUOW: 1, Filter: "F", Host: "b", Copies: 4},
		{BeforeUOW: 2, Filter: "F", Host: "b", Copies: 1},
	}
	base := basePlacement()
	if got := EffectivePlacement(base, steps, 0); !reflect.DeepEqual(got, base) {
		t.Fatalf("uow 0: %v", got)
	}
	if got := EffectivePlacement(base, steps, 1); got[1].Copies != 4 {
		t.Fatalf("uow 1: %v", got)
	}
	// Both steps in force: the later one wins.
	if got := EffectivePlacement(base, steps, 2); got[1].Copies != 1 {
		t.Fatalf("uow 2: %v", got)
	}
	if got := StepsAt(steps, 2); len(got) != 1 || got[0].Copies != 1 {
		t.Fatalf("StepsAt(2) = %v", got)
	}
	if got := StepsAt(steps, 3); got != nil {
		t.Fatalf("StepsAt(3) = %v", got)
	}
}

// ---- metrics / trace events ----

func TestRecordScaleMetricsAndEvents(t *testing.T) {
	ring := obs.NewRingSink(16)
	o := obs.New(ring, nil)
	RecordScale(o, "F", "a", 1, 3, 2, "hot")
	RecordScale(o, "F", "a", 3, 2, 4, "cool")
	RecordScale(o, "F", "a", 2, 2, 5, "noop") // no-op: no counter, no event
	reg := o.Registry()
	if got := reg.Counter(MetricCopiesAdded).Value(); got != 2 {
		t.Fatalf("copies_added = %d, want 2", got)
	}
	if got := reg.Counter(MetricCopiesRemoved).Value(); got != 1 {
		t.Fatalf("copies_removed = %d, want 1", got)
	}
	if got := reg.Gauge(GaugeCopysetSize + ".F.a").Value(); got != 2 {
		t.Fatalf("copyset_size gauge = %d, want 2", got)
	}
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("events %d, want 2: %v", len(evs), evs)
	}
	if evs[0].Kind != obs.KindScaleUp || evs[0].Copy != 3 || evs[0].UOW != 2 || evs[0].Note != "hot" {
		t.Fatalf("scale-up event: %+v", evs[0])
	}
	if evs[1].Kind != obs.KindScaleDown || evs[1].Copy != 2 {
		t.Fatalf("scale-down event: %+v", evs[1])
	}
	if evs[0].Kind.String() != "scale-up" || evs[1].Kind.String() != "scale-down" {
		t.Fatalf("kind names: %v %v", evs[0].Kind, evs[1].Kind)
	}
	// Nil observer: all no-ops.
	RecordScale(nil, "F", "a", 1, 2, 0, "")
}
