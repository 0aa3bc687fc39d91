package numeric

import (
	"math"
	"testing"
)

func TestCell(t *testing.T) {
	axis := []float64{0, 1, 3}
	for _, c := range []struct {
		q    float64
		i    int
		frac float64
	}{
		{0, 0, 0},
		{0.25, 0, 0.25},
		{1, 0, 1},
		{2, 1, 0.5},
		{3, 1, 1},
		{-1, 0, -1}, // below the axis: extrapolate from the first cell
		{5, 1, 2},   // above it: from the last
	} {
		i, frac := Cell(axis, c.q)
		if i != c.i || frac != c.frac {
			t.Errorf("Cell(%v) = (%d, %v), want (%d, %v)", c.q, i, frac, c.i, c.frac)
		}
	}
	if i, frac := Cell(axis, math.NaN()); i != 1 || !math.IsNaN(frac) {
		t.Errorf("Cell(NaN) = (%d, %v), want (1, NaN)", i, frac)
	}
}
