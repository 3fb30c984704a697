// Distributed: run the isosurface pipeline across three worker processes
// connected by TCP — the original DataCutter deployment model. This example
// starts the workers in-process for a self-contained demo; in a real
// deployment each would be a `dcworker` process on its own machine.
package main

import (
	"fmt"
	"image/png"
	"log"
	"os"

	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
)

func main() {
	// 1. Three workers, as if on three hosts.
	addrs := map[string]string{}
	workers := map[string]*dist.Worker{}
	for _, host := range []string{"data1", "data2", "viz"} {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go w.Serve()
		defer w.Close()
		addrs[host] = w.Addr()
		workers[host] = w
	}

	// 2. The pipeline spec: reconstructable worker-side from parameters.
	params := isoviz.FieldREParams{Seed: 42, Plumes: 4, GX: 65, GY: 65, GZ: 65, BX: 4, BY: 4, BZ: 4}
	spec, err := isoviz.ReadExtract.DistGraph(isoviz.ActivePixel, nil, &params)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Placement: read+extract on the data hosts, raster copies
	//    everywhere, merge on the visualization host. Demand-driven
	//    scheduling balances the raster load with real TCP acknowledgments.
	placement := []dist.PlacementEntry{
		{Filter: "RE", Host: "data1", Copies: 1},
		{Filter: "RE", Host: "data2", Copies: 1},
		{Filter: "Ra", Host: "data1", Copies: 1},
		{Filter: "Ra", Host: "data2", Copies: 1},
		{Filter: "Ra", Host: "viz", Copies: 2},
		{Filter: "M", Host: "viz", Copies: 1},
	}

	view := isoviz.View{Timestep: 2, Iso: 0.5, Width: 512, Height: 512, Camera: geom.DefaultCamera()}
	stats, err := dist.Run(addrs, spec, placement, dist.Options{Policy: "DD"}, []any{view})
	if err != nil {
		log.Fatal(err)
	}

	// 4. The merge filter on the viz worker holds the final image.
	m, err := isoviz.MergeResult(workers["viz"].Instances("M"))
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("distributed.png")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := png.Encode(f, m.Result().Image()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("wrote distributed.png")
	for _, s := range []string{isoviz.StreamTriangles, isoviz.StreamPixels} {
		ss := stats.Streams[s]
		fmt.Printf("stream %-10s %5d buffers %8.2f MB %5d acks, per host: %v\n",
			s, ss.Buffers, float64(ss.Bytes)/1e6, ss.Acks, ss.PerTargetHost)
	}
}
