package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/isoviz"
	"datacutter/internal/obs"
	"datacutter/internal/render"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	in      input
	seed    int64
	seconds float64 // how long the closed loop measures
	trace   bool
	scratch string // directory for generated datasets; the run empties it
	log     io.Writer
}

const (
	// setupRounds is how many times an untraced run sets everything up;
	// setup_s is the median.
	setupRounds = 3
	// replayReps is how many times a traced run replays each view.
	replayReps = 3
	// minSessions keeps a loop going past its duration until it has
	// completed this many sessions (8 jobs per client on jobd), so even a
	// zero-second -tiny run measures something.
	minSessions = 2
	// ringEvents bounds the obs ring sink of a traced run.
	ringEvents = 1 << 16
)

// runWorkload performs the run: set-up, reference replay, warm-up, the
// measured closed loop and, when tracing, the traced pass.
func runWorkload(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	res := &runResult{
		Workload: cfg.w.name, Why: cfg.w.why, Input: cfg.in.describe(),
		Trace: cfg.trace, Seconds: cfg.seconds, Env: readEnv(cfg.seed),
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.scratch)

	// Set-up: generate the dataset and start the services, several times on
	// an untraced run so that setup_s is a median. The last round stays up.
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	var setupS []float64
	var createS float64
	var svc *services
	for r := 0; r < rounds; r++ {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("dataset-%d", r))
		t0 := time.Now()
		create, err := cfg.in.generate(dir)
		if err != nil {
			return nil, err
		}
		s, err := startServices(cfg.w, dir, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		createS = create.Seconds()
		if r < rounds-1 {
			s.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		svc = s
	}
	defer svc.stop()
	fmt.Fprintf(cfg.log, "workload %s: %s\ninput: %s (page-cache resident)\nset-up rounds: %s s\n",
		cfg.w.name, cfg.w.why, cfg.in.describe(), fmtFloats(setupS))

	// Reference images and, when tracing, the serial cost of every kernel.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	refs, err := references(svc.store, cfg.in, cfg.w.q, tr)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		res.RefHashes = append(res.RefHashes, r.hash)
	}
	replayed := len(refs)
	for rep := 1; cfg.trace && rep < replayReps; rep++ {
		for t := range refs {
			if _, _, err := replayView(svc.store, cfg.in.view(cfg.w.q.iso, t), cfg.w.q, tr, rep*len(refs)+t); err != nil {
				return nil, err
			}
			replayed++
		}
	}
	replaySpans := tr.snapshot()

	order := newViewOrder(cfg.seed, cfg.in.meta.Timesteps)
	loop := closedLoop(cfg.w)
	// Warm-up: one short loop lets the page cache, the allocator and the
	// engines' lazy set-up settle before anything is timed.
	warm := loop(svc, cfg.w, cfg.in, order, refs, load{minSessions: 1}, nil)

	phases := 1.0
	if cfg.trace {
		phases = 2
		if cfg.w.engine == "dist" {
			phases = 3
		}
	}
	ld := load{dur: time.Duration(cfg.seconds / phases * float64(time.Second)), minSessions: minSessions}
	base := loop(svc, cfg.w, cfg.in, order, refs, ld, nil)

	all := []*sample{warm, base}
	e2e := newMetricSet(endToEnd)
	e2e.set("frames_per_s", float64(len(base.frameMs))/base.wall.Seconds())
	e2e.set("frame_p50_ms", percentile(base.frameMs, 0.5))
	e2e.set("frame_p90_ms", percentile(base.frameMs, 0.9))
	e2e.set("setup_s", median(setupS))
	res.Samples = len(base.frameMs)
	if beyond := samplesBeyond(len(base.frameMs), 0.9); !cfg.trace && beyond < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("frame_p90_ms has only %d samples beyond it (n=%d); ten are needed for it to be trusted", beyond, len(base.frameMs)))
	}

	if !cfg.trace {
		res.Metrics = e2e.export()
	} else {
		fmt.Fprintf(cfg.log, "\nend-to-end, tracing off (n=%d frames in %.2f s):\n", len(base.frameMs), base.wall.Seconds())
		printMetrics(cfg.log, e2e.export(), endToEnd[:3])
		extra, err := tracedPass(cfg, res, svc, tracedInputs{
			order: order, refs: refs, ld: ld, tr: tr, base: base,
			replaySpans: replaySpans, replayed: replayed, createS: createS,
		})
		if err != nil {
			return nil, err
		}
		all = append(all, extra...)
	}

	for _, s := range all {
		res.Attempted += s.attempted
		res.Failed += s.failed
		res.Errors = append(res.Errors, s.errs...)
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && len(base.frameMs) > 0

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		fmt.Fprintf(cfg.log, "\nper-layer metrics (per frame):\n")
	} else {
		fmt.Fprintf(cfg.log, "\nend-to-end metrics (n=%d frames in %.2f s, closed loop, GOMAXPROCS=%d):\n",
			len(base.frameMs), base.wall.Seconds(), res.Env.GOMAXPROCS)
	}
	printMetrics(cfg.log, res.Metrics, specs)
	fmt.Fprintf(cfg.log, "  %-34s %14.4f %-6s (%d failed of %d attempted)\n", "failed_frac", res.FailedFrac, "ratio", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintf(cfg.log, "note: %s\n", n)
	}
	if len(res.Errors) > 0 {
		fmt.Fprintf(cfg.log, "errors: %s\n", strings.Join(res.Errors, "; "))
	}
	return res, nil
}

// tracedInputs is what the traced pass takes over from the run so far.
type tracedInputs struct {
	order       *viewOrder
	refs        []reference
	ld          load
	tr          *tracer
	base        *sample // the untraced loop every ratio refers to
	replaySpans []span
	replayed    int // frames the replay rendered
	createS     float64
}

// tracedPass is the second half of a traced run: the same loop again with
// an obs.Observer (registry + ring sink) attached to a second set of
// services and the bench's own spans on, then the per-layer metrics, the
// two budgets and the Chrome trace. It returns the extra samples it took.
func tracedPass(cfg runConfig, res *runResult, svc *services, in tracedInputs) ([]*sample, error) {
	loop := closedLoop(cfg.w)
	reg := obs.NewRegistry()
	tsvc, err := startServices(cfg.w, svc.dir, obs.New(obs.NewRingSink(ringEvents), reg))
	if err != nil {
		return nil, err
	}
	traced := loop(tsvc, cfg.w, cfg.in, in.order, in.refs, in.ld, in.tr)
	tsvc.stop()
	samples := []*sample{traced}

	// The dist workload also runs its query on the core engine, so the wire
	// gap compares two numbers from one process and one minute.
	var coreTwin *sample
	if cfg.w.engine == "dist" {
		twin, _ := workloadByName("iso-dense-core")
		coreTwin = runSessions(svc, twin, cfg.in, in.order, in.refs, in.ld, nil)
		samples = append(samples, coreTwin)
	}
	for _, s := range append(samples, in.base) {
		if len(s.frameMs) == 0 {
			// Nothing verified, nothing to attribute: the run is incorrect
			// and reports its failures instead of numbers.
			res.Metrics = newMetricSet(perLayer).export()
			return samples, nil
		}
	}

	pl := newMetricSet(perLayer)
	pl.set("dataset.create_s", in.createS)
	kernels := kernelBudget(in.replaySpans, in.replayed, cfg.w.name)
	layerMetrics(pl, cfg.w, kernels, meanCounts(in.refs), in.base, traced, coreTwin, reg)
	pipeline := pipelineBudget(cfg.w, kernels, in.base, traced, coreTwin)
	pl.set("budget.residue_frac", pipeline.ResidueFrac)
	pl.set("process.peak_rss_mb", peakRSSMB())
	res.Metrics = pl.export()
	res.Budgets = []*budget{kernels, pipeline}

	res.TraceFile = filepath.Join(filepath.Dir(cfg.scratch), cfg.w.name+".trace.json")
	if err := writeChromeTrace(res.TraceFile, in.tr.snapshot()); err != nil {
		return nil, err
	}

	fmt.Fprintf(cfg.log, "traced loop: n=%d frames, frame_p50_ms %.3f\n", len(traced.frameMs), percentile(traced.frameMs, 0.5))
	printFilterTable(cfg.log, cfg.w, traced)
	for _, b := range res.Budgets {
		b.print(cfg.log)
	}
	fmt.Fprintf(cfg.log, "\nspans written to %s (Chrome trace format)\n", res.TraceFile)
	return samples, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// meanCounts averages the kernels' work counts over the views; every view
// is requested equally often, so this is the per-frame count.
func meanCounts(refs []reference) map[string]float64 {
	n := float64(len(refs))
	m := make(map[string]float64)
	for _, r := range refs {
		c := r.counts
		m["dataset.chunks_read"] += float64(c.ChunksRead) / n
		m["dataset.chunks_pruned"] += float64(c.ChunksPruned) / n
		m["dataset.read_mb"] += float64(c.ReadBytes) / 1e6 / n
		m["mcubes.cells"] += float64(c.Cells) / n
		m["mcubes.triangles"] += float64(c.Triangles) / n
	}
	return m
}

// kernelBudget sums the replay's self times by span: the serial frame
// explained layer by layer. The rows must account for the frame within 3 %.
func kernelBudget(spans []span, frames int, name string) *budget {
	self := selfTimes(spans)
	byName := make(map[string]float64)
	total := 0.0
	for i, s := range spans {
		ms := float64(self[i].Nanoseconds()) / 1e6 / float64(frames)
		if s.Name == spanReplayFrame {
			total += float64((s.End - s.Start).Nanoseconds()) / 1e6 / float64(frames)
			continue
		}
		byName[s.Name] += ms
	}
	b := newBudget(fmt.Sprintf("frame budget 1/2 — %s, serial kernel replay (one goroutine, %d frames)", name, frames),
		"replay.frame_ms", total, 0.03)
	for _, n := range []string{spanPrune, spanRead, spanExtract, spanRaster, spanMerge, spanSetup} {
		b.add(n, byName[n])
	}
	b.close()
	return b
}

// perFrame divides a total by the sample's successful frames.
func perFrame(total float64, s *sample) float64 {
	if len(s.frameMs) == 0 {
		return 0
	}
	return total / float64(len(s.frameMs))
}

// layerMetrics fills the per-layer metric set from the replay, the traced
// loop's engine stats and registry, and the untraced loop it is compared to.
func layerMetrics(pl *metricSet, w workload, kernels *budget, counts map[string]float64, base, traced, coreTwin *sample, reg *obs.Registry) {
	pl.set("dataset.prune_ms", kernels.row(spanPrune))
	pl.set("dataset.read_ms", kernels.row(spanRead))
	pl.set("mcubes.extract_ms", kernels.row(spanExtract))
	pl.set("render.raster_ms", kernels.row(spanRaster))
	pl.set("render.merge_ms", kernels.row(spanMerge))
	pl.set("replay.frame_ms", kernels.TotalMs)
	pl.set("replay.residue_frac", kernels.ResidueFrac)
	for name, v := range counts {
		pl.set(name, v)
	}

	p50 := percentile(base.frameMs, 0.5)
	pl.set("core.kernel_share", kernels.TotalMs/(p50*float64(runtime.NumCPU())))
	pl.set("obs.overhead_frac", percentile(traced.frameMs, 0.5)/p50)

	if st := traced.stats; st != nil {
		onCore := w.engine == "core"
		for name, fs := range st.Filters {
			if !onCore {
				pl.set("dist.filter."+name+".busy_ms", perFrame(distBusyMs(name, fs), traced))
				continue
			}
			_, busy, _ := core.MinAvgMax(fs.BusySeconds)
			_, rd, _ := core.MinAvgMax(fs.ReadBlockedSeconds)
			_, wr, _ := core.MinAvgMax(fs.WriteBlockedSeconds)
			pl.set("core.filter."+name+".busy_ms", perFrame(busy*1e3, traced))
			pl.set("core.filter."+name+".read_blocked_ms", perFrame(rd*1e3, traced))
			pl.set("core.filter."+name+".write_blocked_ms", perFrame(wr*1e3, traced))
		}
		for name, ss := range st.Streams {
			if onCore {
				pl.set("core.stream."+name+".mb", perFrame(float64(ss.Bytes)/1e6, traced))
				pl.set("core.stream."+name+".buffers", perFrame(float64(ss.Buffers), traced))
			} else if name == isoviz.StreamTriangles {
				pl.set("dist.stream.triangles.mb", perFrame(float64(ss.Bytes)/1e6, traced))
			}
		}
		if px := st.Streams[isoviz.StreamPixels]; px != nil {
			pl.set("render.pixels_merged", perFrame(float64(px.Bytes)/float64(pixelBytes(w.q.alg)), traced))
		}
	}

	if w.engine != "core" {
		pl.set("dist.tx.flushes", perFrame(float64(reg.Counter("dist.tx.flushes").Value()), traced))
		pl.set("dist.tx.writev_calls", perFrame(float64(reg.Counter("dist.tx.writev_calls").Value()), traced))
		if h := reg.Histogram("dist.tx.frame_bytes"); h.Count() > 0 {
			pl.set("dist.tx.frame_bytes", h.Sum()/float64(h.Count()))
		}
	}
	switch w.engine {
	case "dist":
		pl.set("dist.session_ms", median(base.overMs))
		pl.set("dist.wire_gap_ms", p50-percentile(coreTwin.frameMs, 0.5))
	case "jobd":
		pl.set("jobd.submit_ms", median(base.submitMs))
		pl.set("jobd.queue_ms", median(base.queueMs))
		pl.set("jobd.run_ms", median(base.runMs))
		pl.set("jobd.notice_ms", median(base.noticeMs))
		pl.set("dist.session_ms", median(base.runMs)-median(base.engineMs))
	}
}

// pipelineBudget explains the end-to-end frame of the real pipeline.
//
// iso-* workloads: the frame is frame_p50_ms with tracing off. Each kernel
// contributes its serial cost divided by the processors — what it would
// cost if the engine overlapped the copies perfectly — and the engine its
// measured overhead: on core the filters' busy time beyond the kernels
// (packing, copying, allocation), on dist the gap to the same query on the
// core engine. The residue is time per frame in which the processors were
// not busy in any filter's Process: stalls, Init/Finalize, end-of-work.
//
// jobd-small-jobs: the frame is the client-observed job latency and the
// rows are the phases a job passes through.
func pipelineBudget(w workload, kernels *budget, base, traced, coreTwin *sample) *budget {
	nproc := float64(runtime.NumCPU())
	p50 := percentile(base.frameMs, 0.5)
	title := fmt.Sprintf("frame budget 2/2 — %s, real pipeline (tracing off, n=%d frames, %d processors)", w.name, len(base.frameMs), runtime.NumCPU())
	b := newBudget(title, "frame_p50_ms", p50, 0.10)
	if w.engine == "jobd" {
		b.add("jobd.submit (POST round trip)", median(base.submitMs))
		b.add("jobd.queue (Started-Submitted)", median(base.queueMs))
		b.add("dist.session (run - frame)", median(base.runMs)-median(base.engineMs))
		b.add("dist frame (Stats.PerUOW)", median(base.engineMs))
		b.add("jobd.notice (Finished->seen)", median(base.noticeMs))
		b.close()
		return b
	}
	for _, r := range kernels.Rows {
		b.add(r.Layer+" / nproc", r.Ms/nproc)
	}
	switch w.engine {
	case "core":
		busy := 0.0
		for _, fs := range traced.stats.Filters {
			busy += sum(fs.BusySeconds) * 1e3
		}
		b.add("core.filter_overhead / nproc", (perFrame(busy, traced)-(kernels.TotalMs-kernels.ResidueMs))/nproc)
	case "dist":
		b.add("dist.wire_gap", p50-percentile(coreTwin.frameMs, 0.5))
	}
	b.close()
	return b
}

// distBusyMs is a dist filter's busy time averaged over its copies. The
// dist engine appends one entry per copy per unit of work, in worker-reply
// order, so only the total can be attributed: per-copy min and max cannot.
func distBusyMs(filter string, fs *core.FilterStats) float64 {
	for _, e := range distPlacement {
		if e.Filter == filter {
			return sum(fs.BusySeconds) * 1e3 / float64(e.Copies)
		}
	}
	return 0
}

// pixelBytes is the stream accounting size of one merged pixel.
func pixelBytes(alg isoviz.Algorithm) int {
	if alg == isoviz.ZBuffer {
		return render.ZPixelBytes
	}
	return render.PixelBytes
}

// printFilterTable prints the engine's own per-filter accounting for the
// traced loop: min/avg/max over copies, per frame — the real-engine
// counterpart of the paper's per-filter tables.
func printFilterTable(w io.Writer, wl workload, traced *sample) {
	if traced.stats == nil {
		return
	}
	fmt.Fprintf(w, "\nper-filter time from the engine's Stats, ms per frame, min/avg/max over copies (traced loop):\n")
	fmt.Fprintf(w, "  %-6s %6s %24s %24s %24s\n", "filter", "copies", "busy", "read-blocked", "write-blocked")
	triple := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		lo, avg, hi := core.MinAvgMax(xs)
		return fmt.Sprintf("%.2f/%.2f/%.2f", perFrame(lo*1e3, traced), perFrame(avg*1e3, traced), perFrame(hi*1e3, traced))
	}
	for _, name := range sortedKeys(traced.stats.Filters) {
		fs := traced.stats.Filters[name]
		if wl.engine != "core" {
			fmt.Fprintf(w, "  %-6s %6s %24s %24s %24s\n", name, "", fmt.Sprintf("-/%.2f/-", perFrame(distBusyMs(name, fs), traced)), "-", "-")
			continue
		}
		fmt.Fprintf(w, "  %-6s %6d %24s %24s %24s\n", name, fs.Copies, triple(fs.BusySeconds), triple(fs.ReadBlockedSeconds), triple(fs.WriteBlockedSeconds))
	}
	if wl.engine != "core" {
		fmt.Fprintf(w, "  (the dist engine reports one busy figure per copy per frame: wall time inside the work cycle, stream waits included)\n")
	}
	fmt.Fprintf(w, "per-stream traffic, per frame:\n")
	for _, name := range sortedKeys(traced.stats.Streams) {
		ss := traced.stats.Streams[name]
		fmt.Fprintf(w, "  %-10s %10.3f MB %10.1f buffers\n", name, perFrame(float64(ss.Bytes)/1e6, traced), perFrame(float64(ss.Buffers), traced))
	}
}
