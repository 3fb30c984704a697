package main

import (
	"math"
	"testing"
)

func TestMeasureReturnsPositiveConstants(t *testing.T) {
	c := measure(17, 64, 0.5)
	for name, v := range map[string]float64{
		"CellSeconds":       c.CellSeconds,
		"TriGenSeconds":     c.TriGenSeconds,
		"TriRasterSeconds":  c.TriRasterSeconds,
		"PixelSeconds":      c.PixelSeconds,
		"MergePixelSeconds": c.MergePixelSeconds,
		"ImageGenSeconds":   c.ImageGenSeconds,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s = %v, want finite and positive", name, v)
		}
	}
}

// The default grid is 129 samples wide: each row spans three of the
// extraction walk's classification words, the last holding one sample.
func TestMeasureDefaultGrid(t *testing.T) {
	c := measure(129, 64, 0.5)
	for name, v := range map[string]float64{
		"CellSeconds":      c.CellSeconds,
		"TriRasterSeconds": c.TriRasterSeconds,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s = %v, want finite and positive", name, v)
		}
	}
	if v := c.TriGenSeconds; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Errorf("TriGenSeconds = %v, want finite and non-negative", v)
	}
}
