package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec mirrors one entry of BENCHMARK.json; bench_test.go checks the
// two stay in step. Bound is set on end-to-end metrics only.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// End-to-end metrics, reported by every workload with tracing off. On
// jobd-small-jobs a frame is a whole job: frames_per_s is jobs completed
// per second and frame_p50/p90_ms the client-observed latency from POST to
// the terminal state. p90 is the highest percentile with at least ten
// samples beyond it at the ~200 frames the slowest workload completes.
//
// Every bound is the contract's maximum. On a quiet host ten runs spread by
// 2–4 % (interquartile range over the median) for the rate and the median
// and 4–6 % for p90, but the shared 2-vCPU VM this was written on switches,
// for tens of seconds at a time, into a regime 25–30 % slower; batches of ten
// runs then spread by up to 10 % and their medians shift by up to 9 %. The
// windows of one long run wander the same way, so neither a longer run nor a
// different estimator (median or best of five windows were tried) removes
// it. On a dedicated machine the bounds can be tightened.
var endToEnd = []metricSpec{
	{Name: "frames_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "frame_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "frame_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Filters and streams that appear in some workload's graph. Every traced
// run reports every per-layer metric; one that does not apply to the
// workload (a filter it does not place, a layer it does not use) reads 0.
var (
	filterNames = []string{"R", "E", "RE", "Ra", "M"}
	streamNames = []string{"voxels", "triangles", "pixels"}
)

// perLayer lists the per-layer metrics, all per frame (per job on
// jobd-small-jobs) unless the name says otherwise.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{Name: "dataset.create_s", Unit: "s", Better: "lower"},
		{Name: "dataset.prune_ms", Unit: "ms", Better: "lower"},
		{Name: "dataset.read_ms", Unit: "ms", Better: "lower"},
		{Name: "dataset.read_mb", Unit: "MB", Better: "lower"},
		{Name: "dataset.chunks_read", Unit: "count", Better: "lower"},
		{Name: "dataset.chunks_pruned", Unit: "count", Better: "higher"},
		{Name: "mcubes.extract_ms", Unit: "ms", Better: "lower"},
		{Name: "mcubes.cells", Unit: "count", Better: "lower"},
		{Name: "mcubes.triangles", Unit: "count", Better: "lower"},
		{Name: "render.raster_ms", Unit: "ms", Better: "lower"},
		{Name: "render.merge_ms", Unit: "ms", Better: "lower"},
		{Name: "render.pixels_merged", Unit: "count", Better: "lower"},
		{Name: "replay.frame_ms", Unit: "ms", Better: "lower"},
		{Name: "replay.residue_frac", Unit: "ratio", Better: "lower"},
	}
	for _, f := range filterNames {
		for _, k := range []string{"busy_ms", "read_blocked_ms", "write_blocked_ms"} {
			ms = append(ms, metricSpec{Name: "core.filter." + f + "." + k, Unit: "ms", Better: "lower"})
		}
	}
	for _, s := range streamNames {
		ms = append(ms,
			metricSpec{Name: "core.stream." + s + ".mb", Unit: "MB", Better: "lower"},
			metricSpec{Name: "core.stream." + s + ".buffers", Unit: "count", Better: "lower"})
	}
	ms = append(ms, metricSpec{Name: "core.kernel_share", Unit: "ratio", Better: "higher"})
	for _, f := range []string{"RE", "Ra", "M"} {
		ms = append(ms, metricSpec{Name: "dist.filter." + f + ".busy_ms", Unit: "ms", Better: "lower"})
	}
	return append(ms,
		metricSpec{Name: "dist.stream.triangles.mb", Unit: "MB", Better: "lower"},
		metricSpec{Name: "dist.tx.frame_bytes", Unit: "bytes", Better: "higher"},
		metricSpec{Name: "dist.tx.flushes", Unit: "count", Better: "lower"},
		metricSpec{Name: "dist.tx.writev_calls", Unit: "count", Better: "lower"},
		metricSpec{Name: "dist.wire_gap_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "dist.session_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "jobd.submit_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "jobd.queue_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "jobd.run_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "jobd.notice_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "budget.residue_frac", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a spec list; set panics on a name the
// list does not have, so a metric cannot be emitted without being declared.
type metricSet struct {
	specs  []metricSpec
	values map[string]float64
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, values: make(map[string]float64)}
}

func (m *metricSet) set(name string, v float64) {
	for _, s := range m.specs {
		if s.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // an empty sample; the run is already marked incorrect
			}
			m.values[name] = v
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// export returns every declared metric, unset ones as 0.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.specs))
	for _, s := range m.specs {
		out[s.Name] = metricValue{Value: m.values[s.Name], Unit: s.Unit}
	}
	return out
}

// budgetRow is one layer's share of a budget's total.
type budgetRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms_per_frame"`
	Share float64 `json:"share"`
}

// budget explains one measured total as a sum of layer costs. Whatever the
// rows do not explain is the residue; beyond the tolerance it is printed as
// a finding rather than hidden.
type budget struct {
	Title       string      `json:"title"`
	TotalName   string      `json:"total"`
	TotalMs     float64     `json:"total_ms"`
	Rows        []budgetRow `json:"rows"`
	ResidueMs   float64     `json:"residue_ms"`
	ResidueFrac float64     `json:"residue_frac"`
	Tolerance   float64     `json:"tolerance"`
	Finding     string      `json:"finding,omitempty"`
}

func newBudget(title, totalName string, totalMs, tolerance float64) *budget {
	return &budget{Title: title, TotalName: totalName, TotalMs: totalMs, Tolerance: tolerance}
}

func (b *budget) add(layer string, ms float64) {
	b.Rows = append(b.Rows, budgetRow{Layer: layer, Ms: ms})
}

// close computes shares and the residue, and records a finding when the
// residue exceeds the tolerance.
func (b *budget) close() {
	explained := 0.0
	for i := range b.Rows {
		explained += b.Rows[i].Ms
		if b.TotalMs > 0 {
			b.Rows[i].Share = b.Rows[i].Ms / b.TotalMs
		}
	}
	b.ResidueMs = b.TotalMs - explained
	if b.TotalMs > 0 {
		b.ResidueFrac = b.ResidueMs / b.TotalMs
	}
	if math.Abs(b.ResidueFrac) > b.Tolerance {
		b.Finding = fmt.Sprintf("FINDING: %.1f%% of %s is not explained by the rows above (tolerance %.0f%%)",
			100*b.ResidueFrac, b.TotalName, 100*b.Tolerance)
	}
}

// dominant names the row with the largest share.
func (b *budget) dominant() string {
	best := ""
	ms := math.Inf(-1)
	for _, r := range b.Rows {
		if r.Ms > ms {
			best, ms = r.Layer, r.Ms
		}
	}
	return best
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", b.Title)
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer", "ms/frame", "share")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-28s %12.3f %7.1f%%\n", r.Layer, r.Ms, 100*r.Share)
	}
	fmt.Fprintf(w, "  %-28s %12.3f %7.1f%%\n", "residue_ms", b.ResidueMs, 100*b.ResidueFrac)
	fmt.Fprintf(w, "  %-28s %12.3f\n", b.TotalName, b.TotalMs)
	if b.Finding != "" {
		fmt.Fprintf(w, "  %s\n", b.Finding)
	}
}

// runResult is the detail file of one run (-out). Its last key is the
// performance claim the run supports: this benchmark makes none.
type runResult struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Input      string                 `json:"input"`
	Trace      bool                   `json:"trace"`
	Seconds    float64                `json:"seconds"`
	Env        envInfo                `json:"env"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Errors     []string               `json:"errors,omitempty"`
	Samples    int                    `json:"samples"`
	Notes      []string               `json:"notes,omitempty"`
	RefHashes  []string               `json:"reference_hashes"`
	Metrics    map[string]metricValue `json:"metrics"`
	Budgets    []*budget              `json:"budgets,omitempty"`
	TraceFile  string                 `json:"trace_file,omitempty"`
	Claim      *string                `json:"claim"`
}

// finalLine is the contract's last line of standard output.
func (r *runResult) finalLine() string {
	raw, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(raw)
}

// printMetrics lists metrics by name with units, in the order the specs
// declare them.
func printMetrics(w io.Writer, metrics map[string]metricValue, specs []metricSpec) {
	for _, s := range specs {
		v, ok := metrics[s.Name]
		if !ok {
			continue
		}
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.0f%%)", s.Better, 100*s.Bound)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", s.Name, v.Value, v.Unit, bound)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// row returns the cost of the named row, 0 when the budget has none.
func (b *budget) row(layer string) float64 {
	for _, r := range b.Rows {
		if r.Layer == layer {
			return r.Ms
		}
	}
	return 0
}
