package main

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"testing"

	"datacutter/internal/core"
	"datacutter/internal/isoviz"
	"datacutter/internal/volume"
)

// reference renders the synthetic field isorender builds at grid samples
// per axis through a PipelineSpec on the core engine, with one copy of
// each filter.
func reference(t *testing.T, grid, size int, alg isoviz.Algorithm) image.Image {
	t.Helper()
	src := isoviz.NewFieldSource(volume.NewPlumeField(2002, 5), grid, grid, grid, 4, 4, 4)
	spec := isoviz.PipelineSpec{Config: isoviz.ReadExtract, Alg: alg, Source: src, Assign: isoviz.AssignByCopy(src.Chunks())}
	view := isoviz.View{Iso: 0.5, Width: size, Height: size, Camera: isoviz.DefaultView(0).Camera}
	pl := core.NewPlacement().Place("RE", "h0", 1).Place("Ra", "h0", 1).Place("M", "h0", 1)
	r, err := core.NewRunner(spec.Build(), pl, core.Options{UOWs: []any{view}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := isoviz.MergeResult(r.Instances("M"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Result().ActiveCount() == 0 {
		t.Fatal("reference image empty; bad test scene")
	}
	return m.Result().Image()
}

func TestRenderMatchesPipeline(t *testing.T) {
	for _, tc := range []struct {
		flag string
		alg  isoviz.Algorithm
	}{{"ap", isoviz.ActivePixel}, {"zb", isoviz.ZBuffer}} {
		t.Run(tc.flag, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "iso.png")
			o, err := parseFlags([]string{"-grid", "17", "-size", "48", "-alg", tc.flag, "-o", out})
			if err != nil {
				t.Fatal(err)
			}
			if err := run(o, io.Discard); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, err := png.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			want := reference(t, 17, 48, tc.alg)
			if got.Bounds() != want.Bounds() {
				t.Fatalf("bounds %v, want %v", got.Bounds(), want.Bounds())
			}
			b := want.Bounds()
			for y := b.Min.Y; y < b.Max.Y; y++ {
				for x := b.Min.X; x < b.Max.X; x++ {
					if g, w := color.RGBAModel.Convert(got.At(x, y)), color.RGBAModel.Convert(want.At(x, y)); g != w {
						t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, g, w)
					}
				}
			}
		})
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	for _, alg := range []string{"bogus", "zbuffer", ""} {
		if _, err := parseFlags([]string{"-alg", alg}); err == nil {
			t.Errorf("-alg %q accepted", alg)
		}
	}
}
