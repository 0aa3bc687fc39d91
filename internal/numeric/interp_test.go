package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGrid3DReproducesLinearFieldExactly(t *testing.T) {
	// Trilinear interpolation must be exact for multilinear fields.
	g, err := NewGrid3D(Linspace(0, 1, 5), Linspace(0, 100, 4), Linspace(30, 55, 6))
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y, z float64) float64 { return 2*x + 0.1*y - 3*z + 0.05*x*y + 0.01*y*z }
	g.Fill(f)
	probes := [][3]float64{{0.13, 37, 41.7}, {0.9, 5, 30}, {0.5, 50, 54.2}, {1, 100, 55}}
	for _, p := range probes {
		want := f(p[0], p[1], p[2])
		if got := g.Eval(p[0], p[1], p[2]); math.Abs(got-want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestGrid3DExtrapolation(t *testing.T) {
	g, _ := NewGrid3D([]float64{0, 1}, []float64{0, 1}, []float64{0, 1})
	g.Fill(func(x, y, z float64) float64 { return x + y + z })
	if got := g.Eval(2, 0, 0); math.Abs(got-2) > 1e-12 {
		t.Errorf("extrapolated Eval = %v, want 2", got)
	}
	if got := g.Eval(-1, -1, -1); math.Abs(got+3) > 1e-12 {
		t.Errorf("extrapolated Eval = %v, want -3", got)
	}
}

func TestGrid3DErrors(t *testing.T) {
	if _, err := NewGrid3D([]float64{0}, []float64{0, 1}, []float64{0, 1}); err == nil {
		t.Error("short axis should error")
	}
	if _, err := NewGrid3D([]float64{0, 0}, []float64{0, 1}, []float64{0, 1}); err == nil {
		t.Error("non-increasing axis should error")
	}
	for _, bad := range [][]float64{
		{0, math.NaN(), 1},
		{math.NaN(), 0, 1},
		{0, 1, math.NaN()},
		{math.Inf(-1), 0, 1},
		{0, 1, math.Inf(1)},
		{1, 0.5, 2},
	} {
		for axis := 0; axis < 3; axis++ {
			ax := [][]float64{{0, 1}, {0, 1}, {0, 1}}
			ax[axis] = bad
			if _, err := NewGrid3D(ax[0], ax[1], ax[2]); err == nil {
				t.Errorf("axis %d = %v should error", axis, bad)
			}
		}
	}
}

func TestGrid3DInterpolationBoundsProperty(t *testing.T) {
	// Within the hull, a trilinear interpolant never exceeds the node
	// extremes.
	g, _ := NewGrid3D(Linspace(0, 1, 4), Linspace(0, 1, 4), Linspace(0, 1, 4))
	g.Fill(func(x, y, z float64) float64 { return math.Sin(7*x) * math.Cos(5*y) * math.Sin(3*z+1) })
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range g.V {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	f := func(a, b, c float64) bool {
		x, y, z := frac(a), frac(b), frac(c)
		v := g.Eval(x, y, z)
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Abs(x) - math.Floor(math.Abs(x))
}
