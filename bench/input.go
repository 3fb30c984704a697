package main

import (
	"fmt"
	"math/rand"
	"time"

	"datacutter/internal/dataset"
	"datacutter/internal/isoviz"
)

// input is the shared on-disk dataset and image geometry every workload
// queries.
type input struct {
	meta      dataset.Meta
	imageSize int
}

// The plume field is pinned: across field seeds the triangle count of one
// iso-value varies by ±15 % (dense) to 7× (sparse), far above the 8 %
// regression bounds, so a seed-driven field would make runs on different
// seeds incomparable. -seed instead drives the order in which the views are
// requested, which leaves the work per session identical.
const (
	fieldSeed   = 2002
	fieldPlumes = 5

	// The plume field is background ~0.05 with Gaussian peaks around
	// 0.6–1.1: 0.15 cuts a large surface through every plume's skirt, 0.9
	// only tight caps around the strongest peaks.
	denseIso  = 0.15
	sparseIso = 0.9

	framesPerSession = 8
)

// fullInput is 129×129×97 samples in 8×8×6 = 384 chunks over 8 files and 4
// timesteps: 6.5 MB per timestep, 26 MB on disk. That is > 4× this box's
// 4 MiB of L2 but page-cache resident, so dataset.read_ms measures decode
// and copy, not the disk. A dense frame is ~45 ms on 2 vCPUs, which keeps
// well over 100 frame samples in a 12 s run.
func fullInput() input {
	return input{
		meta: dataset.Meta{
			GX: 129, GY: 129, GZ: 97, BX: 8, BY: 8, BZ: 6,
			Timesteps: 4, Files: 8, Seed: fieldSeed, Plumes: fieldPlumes,
		},
		imageSize: 512,
	}
}

// tinyInput (-tiny) is a 33³ grid for the unit tests and smoke runs.
func tinyInput() input {
	return input{
		meta: dataset.Meta{
			GX: 33, GY: 33, GZ: 33, BX: 4, BY: 4, BZ: 3,
			Timesteps: 4, Files: 4, Seed: fieldSeed, Plumes: fieldPlumes,
		},
		imageSize: 128,
	}
}

func (in input) describe() string {
	m := in.meta
	return fmt.Sprintf("%dx%dx%d grid, %dx%dx%d chunks, %d timesteps, %d files, %d plumes, field seed %d, image %dx%d",
		m.GX, m.GY, m.GZ, m.BX, m.BY, m.BZ, m.Timesteps, m.Files, m.Plumes, m.Seed, in.imageSize, in.imageSize)
}

// generate writes the dataset through the production write path
// (dataset.Create, which also builds summary.idx) and returns how long that
// took.
func (in input) generate(dir string) (time.Duration, error) {
	t0 := time.Now()
	st, err := dataset.Create(dir, in.meta)
	if err != nil {
		return 0, fmt.Errorf("generating dataset in %s: %w", dir, err)
	}
	d := time.Since(t0)
	if err := st.Close(); err != nil {
		return 0, fmt.Errorf("closing generated dataset: %w", err)
	}
	return d, nil
}

func (in input) view(iso float32, timestep int) isoviz.View {
	v := isoviz.DefaultView(iso)
	v.Timestep = timestep
	v.Width, v.Height = in.imageSize, in.imageSize
	return v
}

// viewOrder deals timesteps from the seed. Every group of `Timesteps`
// consecutive draws is a fresh permutation of all stored timesteps, so any
// window of whole groups — a session is two — holds each view equally often
// and the work per session does not depend on the seed; only which view
// ends a session (and so gets its image checked) does.
type viewOrder struct {
	rng       *rand.Rand
	timesteps int
	pending   []int
}

func newViewOrder(seed int64, timesteps int) *viewOrder {
	return &viewOrder{rng: rand.New(rand.NewSource(seed)), timesteps: timesteps}
}

func (o *viewOrder) next() int {
	if len(o.pending) == 0 {
		o.pending = o.rng.Perm(o.timesteps)
	}
	t := o.pending[0]
	o.pending = o.pending[1:]
	return t
}

// session returns the timesteps of the next session's frames.
func (o *viewOrder) session() []int {
	ts := make([]int, framesPerSession)
	for i := range ts {
		ts[i] = o.next()
	}
	return ts
}
