// Command dcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dcbench -list
//	dcbench -exp fig4 -scale full
//	dcbench -all -scale quick
//	dcbench -trace out.json            # trace a built-in demo pipeline
//	dcbench -exp table2 -trace out.json -metrics
//
// Each experiment builds the corresponding simulated cluster, dataset, and
// filter configuration (see DESIGN.md §4) and prints paper-style rows.
//
// With -trace, buffer-lifecycle events are exported in Chrome trace_event
// format: open the file at https://ui.perfetto.dev or chrome://tracing.
// With -metrics, the observability registry snapshot is printed as JSON
// after the run. If neither -exp, -all, nor -list is given, -trace runs a
// built-in quickstart-sized isosurface pipeline on the real engine so there
// is always something to trace.
//
// Data path (DESIGN.md §14): -dist runs the same demo on the dist engine
// over two in-process workers joined by loopback TCP; -dir points the demo
// at a datagen dataset:
//
//	dcbench -dist -metrics
//	dcbench -dir /data/plume -trace out.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/exec"
	"datacutter/internal/experiments"
	"datacutter/internal/isoviz"
	"datacutter/internal/obs"
	"datacutter/internal/volume"
)

// options is the parsed command line.
type options struct {
	exp, scale string
	all, list  bool
	trace      string
	metrics    bool
	demo       demoConfig
	dist       bool
}

// parseFlags parses args (without the program name). Errors and -h are
// reported on stderr by the flag package; the caller only picks the exit code.
func parseFlags(args []string) (options, error) {
	var f options
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	fs.StringVar(&f.exp, "exp", "", "experiment id (table1..table5, fig4, fig5, fig7)")
	fs.StringVar(&f.scale, "scale", "quick", "workload scale: quick | full")
	fs.BoolVar(&f.all, "all", false, "run every experiment")
	fs.BoolVar(&f.list, "list", false, "list experiment ids")
	fs.StringVar(&f.trace, "trace", "", "write Chrome trace_event JSON to this file")
	fs.BoolVar(&f.metrics, "metrics", false, "print the metrics registry snapshot after the run")
	fs.StringVar(&f.demo.policy, "policy", "DD", "demo pipeline default writer policy: RR | WRR | DD | DD/<k>")
	fs.StringVar(&f.demo.streams, "stream-policy", "", "demo pipeline per-stream overrides, e.g. 'triangles=DD/8,pixels=WRR'")
	fs.Int64Var(&f.demo.seed, "seed", 42, "demo pipeline synthetic-field seed")

	fs.BoolVar(&f.dist, "dist", false, "run the demo on the dist engine: two in-process workers over loopback TCP")
	fs.StringVar(&f.demo.dir, "dir", "", "datagen dataset directory for the demo source (default: synthetic field)")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if !f.all && !f.list && f.exp == "" && f.trace == "" && !f.metrics && !f.dist && f.demo.dir == "" {
		err := errors.New("need -exp <id>, -all, -list, -trace, -metrics, -dist, or -dir")
		fmt.Fprintln(fs.Output(), "dcbench:", err)
		fs.Usage()
		return f, err
	}
	return f, nil
}

func main() {
	f, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	if f.list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}

	// Observability: build an observer when tracing or metering is on.
	var (
		o      *obs.Observer
		reg    *obs.Registry
		traceF *os.File
	)
	if f.trace != "" || f.metrics {
		var sink obs.Sink
		if f.trace != "" {
			tf, err := os.Create(f.trace)
			if err != nil {
				fatal(err)
			}
			traceF = tf
			sink = obs.NewChromeTraceSink(tf)
		}
		reg = obs.NewRegistry()
		o = obs.New(sink, reg)
	}
	finish := func() {
		if o != nil {
			if err := o.Flush(); err != nil {
				fatal(err)
			}
		}
		if traceF != nil {
			if err := traceF.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dcbench: wrote trace to %s (open at https://ui.perfetto.dev)\n", f.trace)
		}
		if f.metrics {
			fmt.Fprintln(os.Stderr, "dcbench: metrics snapshot:")
			reg.WriteJSON(os.Stdout)
			fmt.Println()
		}
	}

	sc, err := experiments.ParseScale(f.scale)
	if err != nil {
		fatal(err)
	}
	var ids []string
	switch {
	case f.all:
		ids = experiments.IDs()
	case f.exp != "":
		ids = []string{f.exp}
	default:
		// No experiment selected: run the built-in demo pipeline — on the
		// dist engine over in-process workers with -dist, on the core
		// engine otherwise.
		title := "demo pipeline"
		var stats *core.Stats
		if f.dist {
			title = "demo pipeline (dist)"
			stats, err = runDemoDist(o, f.demo)
		} else {
			stats, err = runDemo(o, f.demo)
		}
		if err != nil {
			fatal(err)
		}
		printDemoStats(title, stats)
		if f.dist && reg != nil {
			fmt.Printf("data frames received: %d\n", reg.Counter("dist.rx.data_frames").Value())
		}
		finish()
		return
	}

	experiments.SetObserver(o)
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.Run(id, sc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %.1fs real time]\n\n", id, time.Since(t0).Seconds())
	}
	finish()
}

// demoConfig carries the demo pipeline knobs shared by both engines.
type demoConfig struct {
	policy, streams string
	seed            int64
	dir             string // datagen dataset; "" = synthetic field
}

// demoView is the unit of work both demo engines render.
func demoView(timestep int) isoviz.View {
	return isoviz.View{
		Timestep: timestep, Iso: 0.5,
		Width: 256, Height: 256,
		Camera: isoviz.DefaultView(0).Camera,
	}
}

// demoField is the synthetic demo dataset: a 97^3 plume field in 4x4x4
// chunks. The core demo builds its source from it directly; the dist demo
// ships it as RE params, exactly as dcsubmit does.
func demoField(seed int64) isoviz.FieldREParams {
	return isoviz.FieldREParams{
		Seed: seed, Plumes: 4,
		GX: 97, GY: 97, GZ: 97, BX: 4, BY: 4, BZ: 4,
	}
}

// demoFieldTimestep is the timestep the demos render on the synthetic field;
// a datagen store is rendered at its first timestep.
const demoFieldTimestep = 3

// demoSource builds the demo chunk source: the synthetic field, or a
// datagen store. The returned timestep is one the source actually holds.
func demoSource(d demoConfig) (isoviz.ChunkSource, int, error) {
	if d.dir == "" {
		p := demoField(d.seed)
		field := volume.NewPlumeField(p.Seed, p.Plumes)
		return isoviz.NewFieldSource(field, p.GX, p.GY, p.GZ, p.BX, p.BY, p.BZ), demoFieldTimestep, nil
	}
	st, err := dataset.Open(d.dir)
	if err != nil {
		return nil, 0, err
	}
	return &isoviz.StoreSource{St: st}, 0, nil
}

func printDemoStats(title string, stats *core.Stats) {
	fmt.Printf("%s: RE(2) -> Ra(4) -> M in %.2fs\n", title, stats.WallSeconds)
	for _, name := range stats.StreamNames() {
		s := stats.Streams[name]
		fmt.Printf("stream %-10s: %4d buffers, %7.2f MB\n", name, s.Buffers, float64(s.Bytes)/1e6)
	}
}

// runDemo executes a quickstart-sized isosurface pipeline on the real
// (goroutine) engine under the observer: the demo source through
// read+extract (2 copies) -> raster (4 copies) -> merge, with the writer
// policy selected by -policy / -stream-policy (demand driven by default)
// and the synthetic field derived from -seed. Every filter copy produces
// trace events.
func runDemo(o *obs.Observer, d demoConfig) (*core.Stats, error) {
	perStream, err := exec.ParseStreamPolicies(d.streams)
	if err != nil {
		return nil, err
	}
	cfg, err := exec.ParsePolicies(d.policy, perStream)
	if err != nil {
		return nil, err
	}
	source, timestep, err := demoSource(d)
	if err != nil {
		return nil, err
	}
	spec := isoviz.PipelineSpec{
		Config: isoviz.ReadExtract,
		Alg:    isoviz.ActivePixel,
		Source: source,
		Assign: isoviz.AssignByCopy(source.Chunks()),
	}
	placement := core.NewPlacement().
		Place("RE", "node0", 2).
		Place("Ra", "node0", 4).
		Place("M", "node0", 1)
	runner, err := core.NewRunner(spec.Build(), placement, core.Options{
		Policy:       cfg.Default,
		StreamPolicy: cfg.PerStream,
		UOWs:         []any{demoView(timestep)},
		Obs:          o,
	})
	if err != nil {
		return nil, err
	}
	return runner.Run()
}

// runDemoDist executes the same demo on the distributed engine: two
// in-process workers ("node0", "node1") joined over TCP loopback. The
// source is reconstructed worker-side from its params exactly as dcsubmit
// ships it, so -dir exercises the store read path per RE copy.
func runDemoDist(o *obs.Observer, d demoConfig) (*core.Stats, error) {
	perStream, err := exec.ParseStreamPolicies(d.streams)
	if err != nil {
		return nil, err
	}
	var spec dist.GraphSpec
	timestep := 0
	if d.dir != "" {
		spec, err = isoviz.DistGraphStore(isoviz.StoreREParams{Dir: d.dir}, isoviz.ActivePixel)
	} else {
		field := demoField(d.seed)
		spec, err = isoviz.ReadExtract.DistGraph(isoviz.ActivePixel, nil, &field)
		timestep = demoFieldTimestep
	}
	if err != nil {
		return nil, err
	}
	addrs := make(map[string]string, 2)
	for _, host := range []string{"node0", "node1"} {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if o != nil {
			w.SetObserver(o)
		}
		go w.Serve()
		defer w.Close()
		addrs[host] = w.Addr()
	}
	placement := []dist.PlacementEntry{
		{Filter: "RE", Host: "node0", Copies: 1},
		{Filter: "RE", Host: "node1", Copies: 1},
		{Filter: "Ra", Host: "node0", Copies: 2},
		{Filter: "Ra", Host: "node1", Copies: 2},
		{Filter: "M", Host: "node1", Copies: 1},
	}
	opts := dist.Options{
		Policy:       d.policy,
		StreamPolicy: perStream,
	}
	return dist.RunObserved(addrs, spec, placement, opts, []any{demoView(timestep)}, o)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcbench:", err)
	os.Exit(1)
}
