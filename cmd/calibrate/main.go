// Command calibrate measures the real implementation's unit costs on this
// machine — seconds per marching cell scanned, per triangle generated, per
// triangle rasterized, per pixel filled, per pixel merged — and prints them
// as an isoviz.CostModel literal. This ties the simulated engine's
// calibration to measured reality: run it, scale by the ratio of your CPU
// to the paper's reference core, and paste the result over
// isoviz.DefaultCosts to simulate clusters built from machines like yours.
package main

import (
	"flag"
	"fmt"
	"math"
	"time"

	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/mcubes"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

func main() {
	var (
		grid = flag.Int("grid", 129, "calibration volume samples per axis")
		size = flag.Int("size", 1024, "calibration image width and height")
		iso  = flag.Float64("iso", 0.5, "isovalue")
	)
	flag.Parse()

	fmt.Printf("measuring on a %d^3 volume and a %dx%d image...\n", *grid, *size, *size)
	c := measure(*grid, *size, float32(*iso))
	fmt.Printf("\nmeasured on this machine:\n\n")
	fmt.Printf("isoviz.CostModel{\n")
	fmt.Printf("\tReadCPUPerByte:    %.3g, // not measured here: dominated by I/O path\n", c.ReadCPUPerByte)
	fmt.Printf("\tCellSeconds:       %.3g,\n", c.CellSeconds)
	fmt.Printf("\tTriGenSeconds:     %.3g,\n", c.TriGenSeconds)
	fmt.Printf("\tTriRasterSeconds:  %.3g,\n", c.TriRasterSeconds)
	fmt.Printf("\tPixelSeconds:      %.3g,\n", c.PixelSeconds)
	fmt.Printf("\tMergePixelSeconds: %.3g,\n", c.MergePixelSeconds)
	fmt.Printf("\tImageGenSeconds:   %.3g,\n", c.ImageGenSeconds)
	fmt.Printf("\tCoverage:          %.3g,\n", c.Coverage)
	fmt.Printf("\tAPDedupFactor:     %.3g,\n", c.APDedupFactor)
	fmt.Printf("}\n")
	fmt.Printf("\nreference calibration (isoviz.DefaultCosts) models a 2002 Pentium III 550;\n")
	fmt.Printf("divide your constants by DefaultCosts' to estimate this machine's speedup.\n")
}

// measure times the extraction and rendering kernels on a grid^3 plume
// volume at isovalue iso and a size×size image. The fields it does not
// measure — ReadCPUPerByte, Coverage, APDedupFactor — keep
// isoviz.DefaultCosts' values.
func measure(grid, size int, iso float32) isoviz.CostModel {
	c := isoviz.DefaultCosts()
	v := volume.Rasterize(volume.NewPlumeField(7, 5), grid, grid, grid, 0)

	// Extraction: split cell scanning from triangle generation by running
	// once at an isovalue above the maximum (pure scan) and once for real,
	// both into one reused mesh.
	_, hi := v.MinMax()
	var mesh geom.Mesh
	extract := func(iso float32) (secs float64, st mcubes.Stats) {
		secs = seconds(func() {
			mesh.Reset()
			st = mcubes.ExtractMesh(v, iso, &mesh)
		})
		return secs, st
	}
	scanSecs, scan := extract(hi + 1)
	c.CellSeconds = scanSecs / float64(scan.Cells)
	extractSecs, st := extract(iso)
	tris := float64(max(st.Triangles, 1))
	c.TriGenSeconds = math.Max(0, (extractSecs-scanSecs)/tris)

	// Rasterization: per-pixel fill from two triangles covering the whole
	// image, then per-triangle setup from the scene less its fill. (Fitting
	// both from one scene at two image sizes leaves the per-pixel term
	// inside the timing noise on small scenes.)
	cam := geom.DefaultCamera()
	raster := func(rr *render.Raster, m *geom.Mesh) (secs float64, pixels int64) {
		z := render.NewZBuffer(size, size)
		secs = seconds(func() {
			rr.Pixels = 0
			rr.DrawMesh(m, z)
		})
		return secs, rr.Pixels
	}
	screen := render.NewRaster(cam, size, size)
	screen.M = geom.Identity()
	screen.M[0], screen.M[5] = float64(size), float64(size) // the unit square onto the image
	quad := geom.Mesh{
		P:   []geom.Vec3{geom.V(0, 0, 0.5), geom.V(1, 0, 0.5), geom.V(0, 1, 0.5), geom.V(1, 1, 0.5)},
		N:   make([]geom.Vec3, 4),
		Idx: []uint32{0, 1, 2, 1, 3, 2},
	}
	fillSecs, fillPx := raster(screen, &quad)
	c.PixelSeconds = fillSecs / float64(fillPx)
	sceneSecs, scenePx := raster(render.NewRaster(cam, size, size), &mesh)
	c.TriRasterSeconds = math.Max(0, (sceneSecs-c.PixelSeconds*float64(scenePx))/tris)

	// Merging.
	full := render.NewZBuffer(size, size)
	render.NewRaster(cam, size, size).DrawMesh(&mesh, full)
	acc := render.NewZBuffer(size, size)
	c.MergePixelSeconds = seconds(func() { acc.MergeFrom(full) }) / float64(size*size)
	c.ImageGenSeconds = seconds(func() { acc.Image() }) / float64(size*size)
	return c
}

// seconds returns f's fastest run over at least three runs totalling at
// least 50 ms: on a shared machine the minimum is the least noisy estimate
// of what the work itself costs.
func seconds(f func()) float64 {
	best := math.Inf(1)
	var total time.Duration
	for n := 0; n < 3 || total < 50*time.Millisecond; n++ {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		total += d
		best = math.Min(best, d.Seconds())
	}
	return best
}
