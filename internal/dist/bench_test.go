package dist_test

import (
	"fmt"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/dist"
)

// Loopback two-worker throughput: a float source on host0 streams
// []float32 batches to a sink on host1, through the float32s codec over
// real TCP connections ("codec").

const (
	benchBatches   = 256
	benchBatchLen  = 4096 // float32s per batch (16 KiB)
	benchBatchSize = benchBatchLen * 4
)

type floatSource struct{ core.BaseFilter }

func (s *floatSource) Process(ctx core.Ctx) error {
	vals := make([]float32, benchBatchLen)
	for i := range vals {
		vals[i] = float32(i)
	}
	for i := 0; i < benchBatches; i++ {
		if err := ctx.Write("floats", core.Buffer{Payload: vals, Size: benchBatchSize}); err != nil {
			return err
		}
	}
	return nil
}

type floatSink struct {
	core.BaseFilter
	Seen int
}

func (s *floatSink) Process(ctx core.Ctx) error {
	for {
		b, ok := ctx.Read("floats")
		if !ok {
			return nil
		}
		if n := len(b.Payload.([]float32)); n != benchBatchLen {
			return fmt.Errorf("bench sink: batch of %d floats", n)
		}
		s.Seen++
	}
}

func init() {
	dist.RegisterFilter("bench.fsrc", func([]byte) (core.Filter, error) { return &floatSource{}, nil })
	dist.RegisterFilter("bench.fsink", func([]byte) (core.Filter, error) { return &floatSink{}, nil })
}

func benchWorkers(b *testing.B, n int) map[string]string {
	b.Helper()
	addrs := make(map[string]string, n)
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go w.Serve()
		addrs[fmt.Sprintf("host%d", i)] = w.Addr()
		b.Cleanup(w.Close)
	}
	return addrs
}

func BenchmarkDistThroughput(b *testing.B) {
	placement := []dist.PlacementEntry{
		{Filter: "S", Host: "host0", Copies: 1},
		{Filter: "K", Host: "host1", Copies: 1},
	}
	graph := dist.GraphSpec{
		Filters: []dist.FilterSpec{{Name: "S", Kind: "bench.fsrc"}, {Name: "K", Kind: "bench.fsink"}},
		Streams: []core.StreamSpec{{Name: "floats", From: "S", To: "K"}},
	}
	b.Run("codec", func(b *testing.B) {
		addrs := benchWorkers(b, 2)
		b.ReportAllocs()
		b.SetBytes(benchBatches * benchBatchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(addrs, graph, placement, dist.Options{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// One unit of work's fixed cost: every unit moves one one-byte buffer from
// a source on host0 to a sink on host1, so what a unit costs is its control
// path — the coordinator's round trips on dist, the copies' start and join
// on both engines.

const benchUnits = 300

type byteSource struct{ core.BaseFilter }

func (byteSource) Process(ctx core.Ctx) error {
	return ctx.Write("one", core.Buffer{Payload: []byte{1}, Size: 1})
}

type drainSink struct{ core.BaseFilter }

func (drainSink) Process(ctx core.Ctx) error {
	for {
		if _, ok := ctx.Read("one"); !ok {
			return nil
		}
	}
}

func init() {
	dist.RegisterFilter("bench.bytesrc", func([]byte) (core.Filter, error) { return byteSource{}, nil })
	dist.RegisterFilter("bench.drain", func([]byte) (core.Filter, error) { return drainSink{}, nil })
}

// BenchmarkDistUnitOfWork runs benchUnits units per iteration, as one
// dist.Run on two workers over loopback TCP ("dist") and as one core run of
// the same graph ("core"), and reports wall milliseconds per unit.
func BenchmarkDistUnitOfWork(b *testing.B) {
	uows := make([]any, benchUnits)
	perUnit := func(b *testing.B) {
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*benchUnits), "ms/unit")
	}
	b.Run("dist", func(b *testing.B) {
		addrs := benchWorkers(b, 2)
		graph := dist.GraphSpec{
			Filters: []dist.FilterSpec{{Name: "S", Kind: "bench.bytesrc"}, {Name: "K", Kind: "bench.drain"}},
			Streams: []core.StreamSpec{{Name: "one", From: "S", To: "K"}},
		}
		placement := []dist.PlacementEntry{{Filter: "S", Host: "host0", Copies: 1}, {Filter: "K", Host: "host1", Copies: 1}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(addrs, graph, placement, dist.Options{}, uows); err != nil {
				b.Fatal(err)
			}
		}
		perUnit(b)
	})
	b.Run("core", func(b *testing.B) {
		g := core.NewGraph()
		g.AddFilter("S", func() core.Filter { return byteSource{} })
		g.AddFilter("K", func() core.Filter { return drainSink{} })
		g.Connect("S", "K", "one")
		pl := core.NewPlacement().Place("S", "host0", 1).Place("K", "host1", 1)
		for i := 0; i < b.N; i++ {
			r, err := core.NewRunner(g, pl, core.Options{UOWs: uows})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(); err != nil {
				b.Fatal(err)
			}
		}
		perUnit(b)
	})
}
