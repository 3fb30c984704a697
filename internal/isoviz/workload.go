package isoviz

import (
	"math"
	"sync"

	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/mcubes"
	"datacutter/internal/volume"
)

// ChunkStats is the modeled workload of one chunk at one timestep.
type ChunkStats struct {
	Cells       int // exact marching-cell count of the chunk
	ActiveCells int // estimated cells intersected by the isosurface
	Tris        int // estimated triangles generated
	Bytes       int // chunk payload size
}

// Workload estimates per-chunk isosurface statistics for paper-scale
// datasets without extracting them at full resolution: each chunk's field
// is sampled on a coarse grid, extracted with the real marching-cubes code,
// and the counts are scaled by the resolution ratio (isosurface size grows
// with the square of linear resolution). This keeps the spatial skew of the
// real data — plume-dense chunks stay expensive, empty chunks stay free —
// which is what the scheduling experiments measure.
type Workload struct {
	DS  *dataset.Dataset
	Iso float32
	// CoarseCells is the estimation grid's cells per axis (default 6).
	CoarseCells int

	mu    sync.Mutex
	fld   volume.Field
	cache map[int][]ChunkStats // per timestep
	total map[int]int64
}

// NewWorkload builds an estimator for a dataset at one isovalue.
func NewWorkload(ds *dataset.Dataset, iso float32) *Workload {
	return &Workload{
		DS: ds, Iso: iso, CoarseCells: 6,
		fld:   ds.Field(),
		cache: make(map[int][]ChunkStats),
		total: make(map[int]int64),
	}
}

// Stats returns the modeled workload of one chunk at one timestep.
func (w *Workload) Stats(chunk, timestep int) ChunkStats {
	return w.timestep(timestep)[chunk]
}

// TotalTris returns the estimated triangle total of one timestep.
func (w *Workload) TotalTris(timestep int) int64 {
	w.timestep(timestep)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total[timestep]
}

func (w *Workload) timestep(t int) []ChunkStats {
	w.mu.Lock()
	if st, ok := w.cache[t]; ok {
		w.mu.Unlock()
		return st
	}
	w.mu.Unlock()

	c := w.CoarseCells
	if c < 2 {
		c = 2
	}
	stats := make([]ChunkStats, w.DS.Chunks())
	var total int64
	coarse := volume.New(c+1, c+1, c+1)
	var mesh geom.Mesh
	for i := range stats {
		b := w.DS.Block(i)
		// Sample the chunk's world extent on the coarse grid.
		den := func(n int) float64 {
			if n <= 1 {
				return 1
			}
			return float64(n - 1)
		}
		x0 := float64(b.X0) / den(b.GX)
		y0 := float64(b.Y0) / den(b.GY)
		z0 := float64(b.Z0) / den(b.GZ)
		x1 := float64(b.X0+b.NX-1) / den(b.GX)
		y1 := float64(b.Y0+b.NY-1) / den(b.GY)
		z1 := float64(b.Z0+b.NZ-1) / den(b.GZ)
		for kz := 0; kz <= c; kz++ {
			for ky := 0; ky <= c; ky++ {
				for kx := 0; kx <= c; kx++ {
					fx := x0 + (x1-x0)*float64(kx)/float64(c)
					fy := y0 + (y1-y0)*float64(ky)/float64(c)
					fz := z0 + (z1-z0)*float64(kz)/float64(c)
					coarse.Set(kx, ky, kz, w.fld.Sample(fx, fy, fz, float64(t)))
				}
			}
		}
		mesh.Reset()
		st := mcubes.ExtractMesh(coarse, w.Iso, &mesh)
		realCells := (b.NX - 1) * (b.NY - 1) * (b.NZ - 1)
		// Surface quantities scale with the 2/3 power of the cell-count
		// ratio (area vs volume scaling).
		scale := math.Pow(float64(realCells)/float64(c*c*c), 2.0/3.0)
		stats[i] = ChunkStats{
			Cells:       realCells,
			ActiveCells: int(float64(st.ActiveCells) * scale),
			Tris:        int(float64(st.Triangles) * scale),
			Bytes:       b.Bytes(),
		}
		total += int64(stats[i].Tris)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if st, ok := w.cache[t]; ok {
		return st
	}
	w.cache[t] = stats
	w.total[t] = total
	return stats
}
