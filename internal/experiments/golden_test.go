package experiments

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// TestQuickScaleGolden pins every experiment's quick-scale output: virtual
// time is deterministic, so a change to the runtime, the cost model or the
// model filters that moves any printed cell shows up here as a diff. The
// golden is what `dcbench -all -scale quick | grep -v 'real time'` prints;
// after an intended change regenerate it with
// go test ./internal/experiments -run TestQuickScaleGolden -update.
func TestQuickScaleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden captured on amd64; other targets fuse multiply-adds and round differently")
	}
	var b strings.Builder
	for _, id := range IDs() {
		res, err := Run(id, Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(res.String() + "\n\n")
	}
	const path = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<no line>"
	}
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		if g, w := line(got, i), line(wantLines, i); g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
