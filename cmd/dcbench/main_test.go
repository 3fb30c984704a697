package main

import (
	"testing"

	"datacutter/internal/isoviz"
	"datacutter/internal/obs"
)

// The demo is one pipeline on two engines: the core run and the dist run
// over in-process rings must move the same triangle bytes for the same
// synthetic field, and the ring run must really have used the rings.
func TestDemoSameBytesOnCoreAndDistRing(t *testing.T) {
	d := demoConfig{policy: "DD", seed: 42}
	coreStats, err := runDemo(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	distStats, err := runDemoDist(obs.New(nil, reg), d, "ring")
	if err != nil {
		t.Fatal(err)
	}
	want := coreStats.Streams[isoviz.StreamTriangles].Bytes
	if want == 0 {
		t.Fatal("core demo moved no triangles")
	}
	if got := distStats.Streams[isoviz.StreamTriangles].Bytes; got != want {
		t.Fatalf("triangles bytes: dist ring %d, core %d", got, want)
	}
	if n := reg.Counter("dist.rx.ring_frames").Value(); n == 0 {
		t.Fatal("transport=ring run received no ring frames")
	}
}

// The scenario programs are gone; their flags must not parse.
func TestScenarioFlagsRejected(t *testing.T) {
	for _, arg := range []string{"-elastic", "-pushdown", "-bench-out=x.json"} {
		if _, err := parseFlags([]string{arg}); err == nil {
			t.Errorf("dcbench %s parsed; want a flag error", arg)
		}
	}
	if _, err := parseFlags([]string{"-transport", "ring", "-metrics"}); err != nil {
		t.Errorf("dcbench -transport ring -metrics: %v", err)
	}
}
