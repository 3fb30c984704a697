package main

import (
	"testing"

	"datacutter/internal/isoviz"
	"datacutter/internal/obs"
)

// The demo is one pipeline on two engines: the core run and the dist run
// over loopback TCP must move the same triangle bytes for the same
// synthetic field, and the dist run must really have shipped data frames.
func TestDemoSameBytesOnCoreAndDist(t *testing.T) {
	d := demoConfig{policy: "DD", seed: 42}
	coreStats, err := runDemo(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	distStats, err := runDemoDist(obs.New(nil, reg), d)
	if err != nil {
		t.Fatal(err)
	}
	want := coreStats.Streams[isoviz.StreamTriangles].Bytes
	if want == 0 {
		t.Fatal("core demo moved no triangles")
	}
	if got := distStats.Streams[isoviz.StreamTriangles].Bytes; got != want {
		t.Fatalf("triangles bytes: dist %d, core %d", got, want)
	}
	if n := reg.Counter("dist.rx.data_frames").Value(); n == 0 {
		t.Fatal("dist run received no data frames")
	}
}

// The scenario programs, the transport selector and the readahead and mmap
// read modes are gone; their flags must not parse.
func TestScenarioFlagsRejected(t *testing.T) {
	for _, arg := range []string{"-elastic", "-pushdown", "-bench-out=x.json", "-transport=tcp", "-readahead=4", "-mmap"} {
		if _, err := parseFlags([]string{arg}); err == nil {
			t.Errorf("dcbench %s parsed; want a flag error", arg)
		}
	}
	if _, err := parseFlags([]string{"-dist", "-metrics"}); err != nil {
		t.Errorf("dcbench -dist -metrics: %v", err)
	}
}
