// Package numeric provides the numerical substrate the H2P simulator needs
// and that the Go standard library does not ship: the interpolation cell
// search of a sampled axis, fixed-step ODE integration, integer
// minimization and evenly spaced axes. Everything is deterministic and
// allocation-light so it can run inside tight simulation loops.
package numeric

import "sort"

// Cell finds the lower index of the axis cell containing q and the linear
// interpolation weight inside it, clamping to the axis so out-of-range
// queries extrapolate from the boundary cell. The axis must hold at least
// two strictly increasing nodes. A NaN q selects the last cell with a NaN
// weight.
func Cell(axis []float64, q float64) (int, float64) {
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
