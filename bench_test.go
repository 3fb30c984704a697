// Ablation benches for the design decisions in DESIGN.md §6. Simulated
// ablations report their virtual-time result as the custom metric "vsec".
// The paper's tables and figures are not benchmarks: `dcbench -exp <id>`
// prints them, and TestQuickScaleGolden pins them at quick scale.
package datacutter

import (
	"fmt"
	"testing"

	"datacutter/internal/cluster"
	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/hilbert"
	"datacutter/internal/isoviz"
	"datacutter/internal/sim"
	"datacutter/internal/simrt"
	"datacutter/internal/volume"
)

// BenchmarkPolicyDecision measures the per-buffer decision cost of each
// writer policy (ablation 1: one policy implementation drives both
// engines, so Pick must be cheap).
func BenchmarkPolicyDecision(b *testing.B) {
	targets := make([]core.TargetInfo, 8)
	for i := range targets {
		targets[i] = core.TargetInfo{Host: fmt.Sprintf("h%d", i), Copies: 1 + i%3, Local: i == 2}
	}
	unacked := []int{3, 1, 4, 1, 5, 9, 2, 6}
	for _, pol := range []core.Policy{core.RoundRobin(), core.WeightedRoundRobin(), core.DemandDriven()} {
		b.Run(pol.Name(), func(b *testing.B) {
			w := pol.NewWriter(targets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = w.Pick(unacked)
			}
		})
	}
}

// benchWorkload builds a small simulated workload for the ablations.
func benchWorkload(b *testing.B) *isoviz.Workload {
	b.Helper()
	ds, err := dataset.New(dataset.Meta{
		GX: 65, GY: 65, GZ: 65, BX: 4, BY: 4, BZ: 4,
		Timesteps: 1, Files: 16, Seed: 5, Plumes: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return isoviz.NewWorkload(ds, 0.6)
}

// varCostSource emits buffers whose processing costs follow a seeded
// heavy-tailed distribution (a few buffers are far more expensive, like a
// few chunks carrying most of an isosurface).
type varCostSource struct {
	core.BaseFilter
	n    int
	seed uint64
}

func (s *varCostSource) Process(ctx core.Ctx) error {
	x := s.seed
	for i := 0; i < s.n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cost := 0.001 + float64(x%97)/97.0*0.002
		if x%11 == 0 {
			cost *= 20 // heavy tail
		}
		if err := ctx.Write("work", core.Buffer{Payload: cost, Size: 4 << 10}); err != nil {
			return err
		}
	}
	return nil
}

// varCostWorker charges each buffer's cost to its host CPU.
type varCostWorker struct{ core.BaseFilter }

func (w *varCostWorker) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read("work")
		if !ok {
			return nil
		}
		ctx.Compute(b.Payload.(float64))
	}
}

// BenchmarkCopySetVsPerCopy compares the paper's copy-set design (all
// copies of a filter on a host share one demand-balanced queue) against
// per-copy queues fed round-robin (ablation 2). Buffer costs are
// heavy-tailed, so the shared queue's demand balance finishes sooner while
// static round-robin strands expensive buffers behind one copy.
func BenchmarkCopySetVsPerCopy(b *testing.B) {
	run := func(b *testing.B, sharedQueue bool) float64 {
		k := sim.NewKernel()
		cl := cluster.New(k)
		cl.AddHost(cluster.HostSpec{Name: "src", Cores: 1, Speed: 1, NICBandwidth: 100e6})
		g := core.NewGraph()
		g.AddFilter("S", func() core.Filter { return &varCostSource{n: 2000, seed: 12345} })
		g.AddFilter("W", func() core.Filter { return &varCostWorker{} })
		g.Connect("S", "W", "work")
		// Same aggregate compute either way: one 4-core host (one copy set,
		// one shared demand queue) vs four 1-core hosts (four copy sets fed
		// round robin).
		pl := core.NewPlacement().Place("S", "src", 1)
		if sharedQueue {
			cl.AddHost(cluster.HostSpec{Name: "w0", Cores: 4, Speed: 1, NICBandwidth: 100e6})
			pl.Place("W", "w0", 4)
		} else {
			for i := 0; i < 4; i++ {
				h := fmt.Sprintf("w%d", i)
				cl.AddHost(cluster.HostSpec{Name: h, Cores: 1, Speed: 1, NICBandwidth: 100e6})
				pl.Place("W", h, 1)
			}
		}
		r, err := simrt.NewRunner(g, pl, cl, simrt.Options{Policy: core.RoundRobin(), QueueCap: 4})
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		return st.WallSeconds
	}
	b.Run("shared-copy-set-queue", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(b, true)
		}
		b.ReportMetric(v, "vsec")
	})
	b.Run("per-copy-queues-RR", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(b, false)
		}
		b.ReportMetric(v, "vsec")
	})
}

// ddNoLocal is the DD policy without the local tie-break (ablation 3).
type ddNoLocal struct{}

func (ddNoLocal) Name() string { return "DD-nolocal" }
func (ddNoLocal) NewWriter(targets []core.TargetInfo) core.Writer {
	stripped := make([]core.TargetInfo, len(targets))
	copy(stripped, targets)
	for i := range stripped {
		stripped[i].Local = false
	}
	return core.DemandDriven().NewWriter(stripped)
}

// BenchmarkDDTieBreak compares demand-driven scheduling with and without
// the colocated-copy tie preference on a cluster where network transfers
// are expensive. Raster here is cheap relative to extraction, so consumers
// keep up and ties are common: the tie-break keeps traffic local, the
// variant without it sprays buffers across the slow network.
func BenchmarkDDTieBreak(b *testing.B) {
	w := benchWorkload(b)
	view := isoviz.DefaultView(0.6)
	costs := isoviz.DefaultCosts()
	costs.TriRasterSeconds = 4e-6
	costs.PixelSeconds = 0.5e-6
	run := func(b *testing.B, pol core.Policy) (float64, int64) {
		k := sim.NewKernel()
		cl := cluster.New(k)
		var hosts []string
		for i := 0; i < 4; i++ {
			h := fmt.Sprintf("n%d", i)
			cl.AddHost(cluster.HostSpec{Name: h, Cores: 1, Speed: 1,
				NICBandwidth: 8e6, NICOverhead: 100e-6,
				Disks: []cluster.DiskSpec{{SeekSeconds: 1e-3, Bandwidth: 50e6}}})
			hosts = append(hosts, h)
		}
		dist := dataset.DistributeEven(w.DS.Files, hosts, 1)
		pl := core.NewPlacement()
		for _, h := range hosts {
			pl.Place("RE", h, 1).Place("Ra", h, 1)
		}
		pl.Place("M", hosts[0], 1)
		spec := isoviz.ModelSpec{
			Config: isoviz.ReadExtract, Alg: isoviz.ActivePixel, W: w, Dist: dist,
			Assign: isoviz.AssignByDistribution(w.DS, dist, pl, "RE"),
			Costs:  costs,
		}
		r, err := simrt.NewRunner(spec.Build(), pl, cl, simrt.Options{
			Policy: pol, UOWs: []any{view}, BufferBytes: 8 << 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		return st.WallSeconds, cl.RemoteBytes
	}
	b.Run("DD-local-tiebreak", func(b *testing.B) {
		var v float64
		var bytes int64
		for i := 0; i < b.N; i++ {
			v, bytes = run(b, core.DemandDriven())
		}
		b.ReportMetric(v, "vsec")
		b.ReportMetric(float64(bytes)/1e6, "remoteMB")
	})
	b.Run("DD-no-local", func(b *testing.B) {
		var v float64
		var bytes int64
		for i := 0; i < b.N; i++ {
			v, bytes = run(b, ddNoLocal{})
		}
		b.ReportMetric(v, "vsec")
		b.ReportMetric(float64(bytes)/1e6, "remoteMB")
	})
}

// BenchmarkDecluster compares Hilbert-curve declustering against naive
// modulo declustering (ablation 5): the metric is the worst single-file
// share of a small range query's chunks — lower is better spread.
func BenchmarkDecluster(b *testing.B) {
	meta := dataset.Meta{GX: 129, GY: 129, GZ: 129, BX: 16, BY: 16, BZ: 16,
		Timesteps: 1, Files: 16, Seed: 1, Plumes: 3}
	ds, err := dataset.New(meta)
	if err != nil {
		b.Fatal(err)
	}
	query := func(fileOf func(chunk int) int) float64 {
		// Octant range queries at several offsets; track the worst
		// per-file concentration.
		worst := 0.0
		for off := 0; off <= 64; off += 16 {
			chunks := ds.RangeQuery(off, off, off, off+48, off+48, off+48)
			perFile := make(map[int]int)
			for _, c := range chunks {
				perFile[fileOf(c)]++
			}
			for _, n := range perFile {
				if f := float64(n) / float64(len(chunks)); f > worst {
					worst = f
				}
			}
		}
		return worst
	}
	b.Run("hilbert", func(b *testing.B) {
		var w float64
		for i := 0; i < b.N; i++ {
			w = query(ds.FileOf)
		}
		b.ReportMetric(w, "worstFileShare")
	})
	b.Run("modulo", func(b *testing.B) {
		var w float64
		for i := 0; i < b.N; i++ {
			w = query(func(c int) int { return c % meta.Files })
		}
		b.ReportMetric(w, "worstFileShare")
	})
}

// volumeField builds the shared synthetic field for rendering benches.
func volumeField() volume.Field { return volume.NewPlumeField(99, 4) }

// BenchmarkHilbertIndex measures raw curve-index throughput.
func BenchmarkHilbertIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = hilbert.Index(uint32(i)&1023, uint32(i>>10)&1023, uint32(i>>20)&1023, 10)
	}
}

// BenchmarkHybridPartitioning compares the replicated z-buffer pipeline
// with the paper's proposed hybrid image-partitioning (§6, implemented in
// isoviz.PartitionedSpec): replication ships copies x full frame into the
// merge filter, partitioning ships each winning pixel once, so its merge
// traffic stays flat as parallelism grows.
func BenchmarkHybridPartitioning(b *testing.B) {
	src := isoviz.NewFieldSource(volumeField(), 49, 49, 49, 3, 3, 3)
	view := isoviz.View{Timestep: 0, Iso: 0.35, Width: 128, Height: 128, Camera: isoviz.DefaultView(0).Camera}
	const par = 12
	b.Run("replicated", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			spec := isoviz.PipelineSpec{Config: isoviz.ReadExtract, Alg: isoviz.ZBuffer, Source: src, Assign: isoviz.AssignByCopy(src.Chunks())}
			pl := core.NewPlacement().Place("RE", "h0", 2).Place("Ra", "h0", par).Place("M", "h0", 1)
			r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
			if err != nil {
				b.Fatal(err)
			}
			st, err := r.Run()
			if err != nil {
				b.Fatal(err)
			}
			bytes = st.Streams[isoviz.StreamPixels].Bytes
		}
		b.ReportMetric(float64(bytes)/1e3, "mergeKB")
	})
	b.Run("partitioned", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			spec := isoviz.PartitionedSpec{Bands: par, Source: src, Assign: isoviz.AssignByCopy(src.Chunks())}
			pl := core.NewPlacement().Place("RE", "h0", 2).Place("M", "h0", 1)
			for j := 0; j < par; j++ {
				pl.Place(isoviz.BandFilterName(j), "h0", 1)
			}
			r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
			if err != nil {
				b.Fatal(err)
			}
			st, err := r.Run()
			if err != nil {
				b.Fatal(err)
			}
			bytes = 0
			for j := 0; j < par; j++ {
				bytes += st.Streams[isoviz.PixBandStream(j)].Bytes
			}
		}
		b.ReportMetric(float64(bytes)/1e3, "mergeKB")
	})
}
