package lookup

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/units"
)

// refGrid is the referee of the space's store: a regular 3-D grid of
// samples, x-major, filled by calling a model at every node and
// interpolated trilinearly with a binary-search cell lookup on every axis.
// Build's per-axis fill and the cell-major scalar look-up must reproduce it
// bit for bit.
type refGrid struct {
	X, Y, Z []float64 // strictly increasing axes
	V       []float64 // len(X)*len(Y)*len(Z) values, x-major then y then z
}

func newRefGrid(x, y, z []float64) *refGrid {
	return &refGrid{X: x, Y: y, Z: z, V: make([]float64, len(x)*len(y)*len(z))}
}

func (g *refGrid) idx(i, j, k int) int { return (i*len(g.Y)+j)*len(g.Z) + k }

// At returns the value at grid indices (i, j, k).
func (g *refGrid) At(i, j, k int) float64 { return g.V[g.idx(i, j, k)] }

// Fill populates every grid node from f(x, y, z).
func (g *refGrid) Fill(f func(x, y, z float64) float64) {
	for i, x := range g.X {
		for j, y := range g.Y {
			for k, z := range g.Z {
				g.V[g.idx(i, j, k)] = f(x, y, z)
			}
		}
	}
}

// Eval trilinearly interpolates the grid at (x, y, z), extrapolating from
// boundary cells outside the grid.
func (g *refGrid) Eval(x, y, z float64) float64 {
	i, tx := numeric.Cell(g.X, x)
	j, ty := numeric.Cell(g.Y, y)
	k, tz := numeric.Cell(g.Z, z)
	var v float64
	for di := 0; di <= 1; di++ {
		wx := 1 - tx
		if di == 1 {
			wx = tx
		}
		for dj := 0; dj <= 1; dj++ {
			wy := 1 - ty
			if dj == 1 {
				wy = ty
			}
			for dk := 0; dk <= 1; dk++ {
				wz := 1 - tz
				if dk == 1 {
					wz = tz
				}
				v += wx * wy * wz * g.At(i+di, j+dj, k+dk)
			}
		}
	}
	return v
}

// refSpace holds a space and the referee grids of the same campaign: the
// CPU model called at every node (the outlet is Eq. 8, the inlet plus
// Spec.OutletDeltaT).
type refSpace struct {
	name       string
	space      *Space
	tcpu, tout *refGrid
}

func newRefSpace(t testing.TB, spec cpu.Spec, axesName string, axes Axes) refSpace {
	t.Helper()
	s, err := Build(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	tcpu := newRefGrid(axes.Utilization, axes.Flow, axes.Inlet)
	tout := newRefGrid(axes.Utilization, axes.Flow, axes.Inlet)
	tcpu.Fill(func(u, f, tin float64) float64 {
		return float64(spec.Temperature(u, units.LitersPerHour(f), units.Celsius(tin)))
	})
	tout.Fill(func(u, f, tin float64) float64 {
		return float64(units.Celsius(tin) + spec.OutletDeltaT(u, units.LitersPerHour(f)))
	})
	return refSpace{name: spec.Model + "/" + axesName, space: s, tcpu: tcpu, tout: tout}
}

// refSpaces builds every (SKU, axis set) pair: the three CPU SKUs on the
// default axes, two-node axes and non-uniform axes.
func refSpaces(t testing.TB) []refSpace {
	t.Helper()
	axes := []struct {
		name string
		ax   Axes
	}{
		{"default", DefaultAxes()},
		{"two-node", Axes{Utilization: []float64{0, 1}, Flow: []float64{20, 250}, Inlet: []float64{30, 58}}},
		{"non-uniform", Axes{
			Utilization: []float64{0, 0.03, 0.1, 0.25, 0.5, 0.8, 0.97, 1},
			Flow:        []float64{10, 20, 22, 35, 80, 150, 250, 400},
			Inlet:       []float64{25, 30, 31.5, 40, 45.25, 58, 60},
		}},
	}
	var out []refSpace
	for _, spec := range []cpu.Spec{cpu.XeonE52650V3(), cpu.XeonE52680V4(), cpu.XeonD1540()} {
		for _, a := range axes {
			out = append(out, newRefSpace(t, spec, a.name, a.ax))
		}
	}
	return out
}

// sameBits reports whether two look-up results agree bit for bit; any two
// NaNs agree.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestBuildMatchesReferee pins Build's per-axis fill to the model called at
// every node: every CPU and outlet sample of the cell-major store equals
// the referee grid's bit for bit, and the scalar look-ups agree with the
// referee's trilinear Eval at the nodes and at off-grid probes.
func TestBuildMatchesReferee(t *testing.T) {
	for _, r := range refSpaces(t) {
		tabs := r.space.tabs
		ax := r.space.Axes()
		for i := range ax.Utilization {
			for j := range ax.Flow {
				for k := range ax.Inlet {
					at := (j*tabs.ni+k)*tabs.nu + i
					if got, want := tabs.tcpu[at], r.tcpu.At(i, j, k); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s node (%d,%d,%d): CPU sample %v, model %v", r.name, i, j, k, got, want)
					}
					if got, want := tabs.tout[at], r.tout.At(i, j, k); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s node (%d,%d,%d): outlet sample %v, model %v", r.name, i, j, k, got, want)
					}
				}
			}
		}
		probes := [][3]float64{{0.13, 37, 41.7}, {0.9, 5, 30}, {0.5, 50, 54.2}, {1, 250, 58}, {-0.2, 300, 20}}
		for _, p := range probes {
			checkEval(t, r, p[0], p[1], p[2])
		}
	}
}

// checkEval compares the space's scalar look-ups with the referee's at one
// operating point.
func checkEval(t *testing.T, r refSpace, u, f, tin float64) {
	t.Helper()
	s := r.space
	if got, want := float64(s.CPUTemp(u, units.LitersPerHour(f), units.Celsius(tin))), r.tcpu.Eval(u, f, tin); !sameBits(got, want) {
		t.Fatalf("%s CPUTemp(%v, %v, %v) = %v, referee %v", r.name, u, f, tin, got, want)
	}
	if got, want := float64(s.OutletTemp(u, units.LitersPerHour(f), units.Celsius(tin))), r.tout.Eval(u, f, tin); !sameBits(got, want) {
		t.Fatalf("%s OutletTemp(%v, %v, %v) = %v, referee %v", r.name, u, f, tin, got, want)
	}
}

// FuzzSpaceEval holds CPUTemp and OutletTemp to the referee's trilinear
// Eval on any operating point, in range or not, NaN and ±Inf included, on
// every (SKU, axis set) pair of TestBuildMatchesReferee.
func FuzzSpaceEval(f *testing.F) {
	inf := math.Inf(1)
	for _, seed := range [][3]float64{
		{0.25, 20, 30}, {0.137, 61.3, 44.9}, {1, 250, 58}, {0, 20, 30},
		{-0.5, 10, 10}, {1.5, 1e4, 90}, {math.NaN(), 100, 40}, {0.5, math.NaN(), 40},
		{0.5, 100, math.NaN()}, {inf, 100, 40}, {0.5, -inf, 40}, {0.5, 100, inf},
		{-inf, inf, -inf}, {1e300, -1e300, 1e-300},
	} {
		f.Add(uint8(0), seed[0], seed[1], seed[2])
	}
	f.Add(uint8(4), 0.61, 47.0, 52.5)
	f.Add(uint8(8), 0.98, 23.0, 59.0)
	rs := refSpaces(f)
	f.Fuzz(func(t *testing.T, sel uint8, u, flow, tin float64) {
		checkEval(t, rs[int(sel)%len(rs)], u, flow, tin)
	})
}

// TestAxesValidate pins the axis checks Build runs: every axis needs at
// least two finite, strictly increasing nodes.
func TestAxesValidate(t *testing.T) {
	if err := DefaultAxes().Validate(); err != nil {
		t.Fatalf("default axes: %v", err)
	}
	for _, bad := range [][]float64{
		{0},
		{0, 0},
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
			a := Axes{Utilization: ax[0], Flow: ax[1], Inlet: ax[2]}
			if err := a.Validate(); err == nil {
				t.Errorf("axis %d = %v should error", axis, bad)
			}
		}
	}
}

// TestRefereeReproducesLinearFieldExactly checks the referee is a true
// trilinear interpolant: exact on multilinear fields.
func TestRefereeReproducesLinearFieldExactly(t *testing.T) {
	g := newRefGrid(numeric.Linspace(0, 1, 5), numeric.Linspace(0, 100, 4), numeric.Linspace(30, 55, 6))
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

// TestRefereeExtrapolation checks the referee extrapolates linearly from the
// boundary cells.
func TestRefereeExtrapolation(t *testing.T) {
	g := newRefGrid([]float64{0, 1}, []float64{0, 1}, []float64{0, 1})
	g.Fill(func(x, y, z float64) float64 { return x + y + z })
	if got := g.Eval(2, 0, 0); math.Abs(got-2) > 1e-12 {
		t.Errorf("extrapolated Eval = %v, want 2", got)
	}
	if got := g.Eval(-1, -1, -1); math.Abs(got+3) > 1e-12 {
		t.Errorf("extrapolated Eval = %v, want -3", got)
	}
}

// TestRefereeInterpolationBoundsProperty checks that within the hull the
// referee never exceeds the node extremes.
func TestRefereeInterpolationBoundsProperty(t *testing.T) {
	g := newRefGrid(numeric.Linspace(0, 1, 4), numeric.Linspace(0, 1, 4), numeric.Linspace(0, 1, 4))
	g.Fill(func(x, y, z float64) float64 { return math.Sin(7*x) * math.Cos(5*y) * math.Sin(3*z+1) })
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range g.V {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	frac := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0.5
		}
		return math.Abs(x) - math.Floor(math.Abs(x))
	}
	f := func(a, b, c float64) bool {
		v := g.Eval(frac(a), frac(b), frac(c))
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
