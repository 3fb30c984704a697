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
