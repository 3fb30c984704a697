package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty sample must not produce a number")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{0, 0.9, 0}, {10, 0.9, 0}, {100, 0.9, 9}, {101, 0.9, 10}, {104, 0.9, 10}, {600, 0.95, 29}, {3, 0.5, 1}} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 108); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("relDiff(100,108) = %v", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0,0) = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "frame", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "raster", Start: 10 * ms, End: 60 * ms, Parent: 0},
		{Name: "merge", Start: 20 * ms, End: 30 * ms, Parent: 1},
		{Name: "read", Start: 60 * ms, End: 90 * ms, Parent: 0},
	}
	want := []time.Duration{20 * ms, 40 * ms, 10 * ms, 30 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	var off *tracer
	if id := off.begin("x", "y", -1, 0); id != -1 {
		t.Errorf("a nil tracer handed out span %d", id)
	}
	off.end(-1)
}

func TestBudgetResidue(t *testing.T) {
	b := newBudget("t", "total", 100, 0.10)
	b.add("a", 60)
	b.add("b", 25)
	b.close()
	if math.Abs(b.ResidueMs-15) > 1e-9 || b.Finding == "" || b.dominant() != "a" {
		t.Errorf("residue %v finding %q dominant %q", b.ResidueMs, b.Finding, b.dominant())
	}
	b = newBudget("t", "total", 100, 0.10)
	b.add("a", 95)
	b.close()
	if b.Finding != "" {
		t.Errorf("5%% residue within a 10%% tolerance reported %q", b.Finding)
	}
}

func TestViewOrder(t *testing.T) {
	a, b, c := newViewOrder(7, 4), newViewOrder(7, 4), newViewOrder(8, 4)
	same, differs := true, false
	for s := 0; s < 20; s++ {
		sa, sb, sc := a.session(), b.session(), c.session()
		count := make(map[int]int)
		for i, ts := range sa {
			count[ts]++
			same = same && ts == sb[i]
			differs = differs || ts != sc[i]
		}
		for ts := 0; ts < 4; ts++ {
			if count[ts] != framesPerSession/4 {
				t.Fatalf("session %v does not hold every timestep equally often", sa)
			}
		}
	}
	if !same || !differs {
		t.Errorf("same seed gave same order: %v; another seed gave another: %v", same, differs)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code in
// step, and holds both to the contract's syntax rules.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from the code or is too long", i, w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, the code has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	last := bj.EndToEnd[len(bj.EndToEnd)-1]
	if last.Name != "setup_s" || last.Unit != "s" || last.Better != "lower" || last.Bound != maxBound {
		t.Errorf("setup_s must be present with unit s, lower, and the largest bound: %+v", last)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %+v, the code has %+v", i, m, want)
		}
	}
}

func tinyConfig(t *testing.T, w workload, trace bool) runConfig {
	return runConfig{
		w: w, in: tinyInput(), seed: 3, seconds: 0, trace: trace,
		scratch: filepath.Join(t.TempDir(), "run"), log: io.Discard,
	}
}

// checkMetrics asserts a result carries exactly the declared metrics, each
// with its declared unit.
func checkMetrics(t *testing.T, res *runResult, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		if v, ok := res.Metrics[s.Name]; !ok || v.Unit != s.Unit {
			t.Errorf("%s: metric %s emitted=%v unit %q, want unit %q", res.Workload, s.Name, ok, v.Unit, s.Unit)
		}
	}
}

// TestTinyRuns drives every workload end to end at -tiny scale, both with
// tracing off and on.
func TestTinyRuns(t *testing.T) {
	hashes := make(map[string][]string)
	for _, w := range workloads {
		res, err := runWorkload(tinyConfig(t, w, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minSessions*framesPerSession {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", w.name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		checkMetrics(t, res, endToEnd)
		for _, s := range endToEnd {
			if res.Metrics[s.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, s.Name, res.Metrics[s.Name].Value)
			}
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(res.finalLine()), &line); err != nil || len(line) != 4 {
			t.Errorf("%s: final line %s: %v", w.name, res.finalLine(), err)
		}
		hashes[w.name] = res.RefHashes

		res, err = runWorkload(tinyConfig(t, w, true))
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: errors=%v", w.name, res.Errors)
		}
		checkMetrics(t, res, perLayer)
		if len(res.Budgets) != 2 {
			t.Fatalf("%s traced: %d budgets, want the kernel replay and the pipeline", w.name, len(res.Budgets))
		}
		if k := res.Budgets[0]; math.Abs(k.ResidueFrac) > k.Tolerance {
			t.Errorf("%s: kernel replay self times miss the serial frame by %.1f%%, tolerance %.0f%%", w.name, 100*k.ResidueFrac, 100*k.Tolerance)
		}
		for _, b := range res.Budgets {
			explained := b.ResidueMs
			for _, r := range b.Rows {
				explained += r.Ms
			}
			if math.Abs(explained-b.TotalMs) > 1e-6*math.Max(1, b.TotalMs) {
				t.Errorf("%s: budget %q rows + residue = %v, total %v", w.name, b.Title, explained, b.TotalMs)
			}
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: Chrome trace not written: %v", w.name, err)
		}
		if res.Metrics["mcubes.triangles"].Value <= 0 || res.Metrics["replay.frame_ms"].Value <= 0 {
			t.Errorf("%s: replay measured nothing", w.name)
		}
	}
	dense, dist := hashes["iso-dense-core"], hashes["iso-dense-dist-tcp"]
	for i := range dense {
		if dense[i] != dist[i] {
			t.Errorf("timestep %d: the dense core and dist workloads render different references", i)
		}
	}
}

// TestWrongReferenceFails shows the correctness gate has teeth: with a
// deliberately wrong reference image every check must count as failed.
func TestWrongReferenceFails(t *testing.T) {
	in := tinyInput()
	dir := t.TempDir()
	if _, err := in.generate(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"iso-dense-core", "jobd-small-jobs"} {
		w, _ := workloadByName(name)
		svc, err := startServices(w, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := references(svc.store, in, w.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		order := newViewOrder(1, in.meta.Timesteps)
		loop := closedLoop(w)
		if good := loop(svc, w, in, order, refs, load{minSessions: 1}, nil); good.failed != 0 {
			t.Errorf("%s: %d failures against the true reference: %v", name, good.failed, good.errs)
		}
		for i := range refs {
			refs[i].image.Color[0].R ^= 0xff
		}
		bad := loop(svc, w, in, order, refs, load{minSessions: 1}, nil)
		if bad.failed != bad.attempted || bad.attempted == 0 || len(bad.frameMs) != 0 {
			t.Errorf("%s: wrong reference: failed %d of %d, %d frames still timed", name, bad.failed, bad.attempted, len(bad.frameMs))
		}
		svc.stop()
	}
}
