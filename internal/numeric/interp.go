// Package numeric provides the numerical substrate the H2P simulator needs
// and that the Go standard library does not ship: trilinear interpolation
// over a regular 3-D grid, fixed-step ODE integration, integer minimization
// and evenly spaced axes. Everything is deterministic and allocation-light
// so it can run inside tight simulation loops.
package numeric

import (
	"errors"
	"math"
	"sort"
)

// Grid3D is a regular 3-D grid of samples supporting trilinear interpolation:
// the continuous look-up space fitted over the (utilization, flow, inlet
// temperature) measurement points of Fig. 12.
type Grid3D struct {
	X, Y, Z []float64 // strictly increasing axes
	V       []float64 // len(X)*len(Y)*len(Z) values, x-major then y then z
}

// NewGrid3D allocates a grid over the given axes with zero values. Each
// axis needs at least two finite, strictly increasing nodes.
func NewGrid3D(x, y, z []float64) (*Grid3D, error) {
	for _, axis := range [][]float64{x, y, z} {
		if len(axis) < 2 {
			return nil, errors.New("numeric: Grid3D axes need at least 2 points")
		}
		for i, v := range axis {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, errors.New("numeric: Grid3D axis nodes must be finite")
			}
			// Negated, so a NaN fails it too.
			if i > 0 && !(v > axis[i-1]) {
				return nil, errors.New("numeric: Grid3D axes must be strictly increasing")
			}
		}
	}
	return &Grid3D{
		X: append([]float64(nil), x...),
		Y: append([]float64(nil), y...),
		Z: append([]float64(nil), z...),
		V: make([]float64, len(x)*len(y)*len(z)),
	}, nil
}

func (g *Grid3D) idx(i, j, k int) int {
	return (i*len(g.Y)+j)*len(g.Z) + k
}

// Set stores the value at grid indices (i, j, k).
func (g *Grid3D) Set(i, j, k int, v float64) { g.V[g.idx(i, j, k)] = v }

// At returns the value at grid indices (i, j, k).
func (g *Grid3D) At(i, j, k int) float64 { return g.V[g.idx(i, j, k)] }

// Fill populates every grid node from f(x, y, z).
func (g *Grid3D) Fill(f func(x, y, z float64) float64) {
	for i, x := range g.X {
		for j, y := range g.Y {
			for k, z := range g.Z {
				g.Set(i, j, k, f(x, y, z))
			}
		}
	}
}

// Cell finds the lower index of the axis cell containing q and the
// interpolation weight inside it, clamping to the grid so out-of-range
// queries extrapolate from the boundary cell. It is exported so that
// flattened-table consumers (lookup's candidate tables) can reproduce
// Grid3D.Eval's cell selection bit-for-bit.
func Cell(axis []float64, q float64) (int, float64) { return cell(axis, q) }

// cell finds the lower index of the axis cell containing q, clamping to the
// grid so out-of-range queries extrapolate from the boundary cell.
func cell(axis []float64, q float64) (int, float64) {
	i := sort.SearchFloat64s(axis, q)
	if i <= 0 {
		i = 1
	}
	if i >= len(axis) {
		i = len(axis) - 1
	}
	t := (q - axis[i-1]) / (axis[i] - axis[i-1])
	return i - 1, t
}

// Eval trilinearly interpolates the grid at (x, y, z), extrapolating from
// boundary cells outside the grid.
func (g *Grid3D) Eval(x, y, z float64) float64 {
	i, tx := cell(g.X, x)
	j, ty := cell(g.Y, y)
	k, tz := cell(g.Z, z)
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
