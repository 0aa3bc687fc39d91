package lookup

import "github.com/h2p-sim/h2p/internal/numeric"

// candTables is the flattened structure-of-arrays view of the measurement
// grids used by the per-interval decision hot path. The cooling controller
// scans the (flow, inlet) candidate cells once per cache miss; walking the
// Grid3D directly costs three binary searches and an eight-corner trilinear
// sum per candidate, plus a []Point allocation to carry the results. The
// tables reorganize the same samples cell-major so a candidate costs two
// multiply-adds per temperature with zero allocations (batch.go packs them
// into the miss scan's slab rows).
//
// Layout: cells are numbered flow-major (cell = flowIdx*len(Inlet)+inletIdx,
// the exact iteration order of PlaneIntersection), and for each cell the
// utilization stencil is contiguous: tcpu[cell*nu+iu] is the sampled CPU
// temperature at (Utilization[iu], flow[cell], inlet[cell]). Because flow
// and inlet sit exactly on grid nodes, trilinear interpolation at a plane u
// degenerates to the linear blend w0*tcpu[cell*nu+i] + w1*tcpu[cell*nu+i+1],
// which reproduces Grid3D.Eval bit-for-bit (the collapsed axes contribute
// exact 0/1 weights, and IEEE addition of the zero terms is exact).
type candTables struct {
	nu    int       // len(axes.Utilization): stencil stride
	cells int       // len(axes.Flow) * len(axes.Inlet)
	ni    int       // len(axes.Inlet): cell -> flow index divisor
	uAxis []float64 // the utilization axis (shared with axes)
	// uScale maps an in-axis utilization to locate's first guess at its
	// segment: (nu-1) / (last node - first node).
	uScale float64
	flow   []float64 // per-cell flow coordinate, len cells
	inlet  []float64 // per-cell inlet coordinate, len cells
	tcpu   []float64 // per-cell utilization stencils, len cells*nu
	tout   []float64 // per-cell utilization stencils, len cells*nu
}

// buildCandTables transposes the x-major grids into cell-major stencils.
func buildCandTables(axes Axes, tcpu, tout *numeric.Grid3D) *candTables {
	nu, nf, ni := len(axes.Utilization), len(axes.Flow), len(axes.Inlet)
	t := &candTables{
		nu:     nu,
		cells:  nf * ni,
		ni:     ni,
		uAxis:  axes.Utilization,
		uScale: float64(nu-1) / (axes.Utilization[nu-1] - axes.Utilization[0]),
		flow:   make([]float64, nf*ni),
		inlet:  make([]float64, nf*ni),
		tcpu:   make([]float64, nf*ni*nu),
		tout:   make([]float64, nf*ni*nu),
	}
	for j, f := range axes.Flow {
		for k, tin := range axes.Inlet {
			c := j*ni + k
			t.flow[c] = f
			t.inlet[c] = tin
			base := c * nu
			for i := range axes.Utilization {
				t.tcpu[base+i] = tcpu.At(i, j, k)
				t.tout[base+i] = tout.At(i, j, k)
			}
		}
	}
	return t
}

// locate returns numeric.Cell(t.uAxis, u) — the lower node index of u's
// utilization segment and the blend weight inside it — without the binary
// search. An in-axis u starts from the direct guess (u-a0)·uScale, clamped
// to the axis and exact on a uniform one; the two fix-up loops then walk to
// the smallest i with axis[i] >= u, which is sort.SearchFloat64s's index on
// any strictly increasing axis, so the clamp and the weight below are
// numeric.Cell's bit for bit. NaN, ±Inf and out-of-axis values take
// numeric.Cell itself.
func (t *candTables) locate(u float64) (int, float64) {
	ax := t.uAxis
	last := len(ax) - 1
	if !(u >= ax[0] && u <= ax[last]) {
		return numeric.Cell(ax, u)
	}
	i := min(max(int((u-ax[0])*t.uScale), 0), last)
	for i > 0 && ax[i-1] >= u {
		i--
	}
	for ax[i] < u {
		i++
	}
	i = max(i, 1)
	return i - 1, (u - ax[i-1]) / (ax[i] - ax[i-1])
}
