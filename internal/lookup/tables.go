package lookup

import (
	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/units"
)

// candTables is the flattened structure-of-arrays view of the measurement
// grids used by the per-interval decision hot path. The cooling controller
// scans every (flow, inlet) candidate cell once per cache miss; walking the
// Grid3D directly costs three binary searches and an eight-corner trilinear
// sum per candidate, plus a []Point allocation to carry the results. The
// tables reorganize the same samples cell-major so the scan is two fused
// multiply-adds per temperature, streamed through a visitor with zero
// allocations.
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

// pointAt assembles the interpolated Point of cell c at the plane located by
// (iu, w0, w1). The blend order matches Grid3D.Eval exactly.
func (t *candTables) pointAt(c int, u float64, iu int, w0, w1 float64) Point {
	base := c * t.nu
	return Point{
		Utilization: u,
		Flow:        units.LitersPerHour(t.flow[c]),
		Inlet:       units.Celsius(t.inlet[c]),
		CPUTemp:     units.Celsius(w0*t.tcpu[base+iu] + w1*t.tcpu[base+iu+1]),
		Outlet:      units.Celsius(w0*t.tout[base+iu] + w1*t.tout[base+iu+1]),
	}
}

// VisitPlane streams every (flow, inlet) candidate cell on the utilization
// plane u — the interpolated Point plus its flat cell index — in the same
// order PlaneIntersection materializes them, without allocating. The cell
// index is stable for the lifetime of the Space (flow-major), so callers can
// precompute per-cell data (e.g. flow-derating factors) and index it
// directly. The visitor returns false to stop early.
func (s *Space) VisitPlane(u float64, visit func(cell int, p Point) bool) error {
	if u < 0 || u > 1 {
		return errOutsideUnit(u)
	}
	t := s.tabs
	iu, tx := numeric.Cell(t.uAxis, u)
	w0, w1 := 1-tx, tx
	visited := 0
	for c := 0; c < t.cells; c++ {
		visited++
		if !visit(c, t.pointAt(c, u, iu, w0, w1)) {
			break
		}
	}
	if m := s.metrics(); m != nil {
		m.planeScans.Inc()
		m.planeScanCells.Observe(float64(visited))
	}
	return nil
}

// VisitPlaneIntersection streams the candidate cooling settings of Step 3 —
// the cells of the plane u whose CPU temperature lies within [tsafe-band,
// tsafe+band] — without materializing a slice. It is the allocation-free
// variant of PlaneIntersection and visits bit-identical points in the same
// order.
func (s *Space) VisitPlaneIntersection(u float64, tsafe, band units.Celsius, visit func(cell int, p Point) bool) error {
	if band <= 0 {
		return errBandNotPositive
	}
	return s.VisitPlane(u, func(c int, p Point) bool {
		if p.CPUTemp >= tsafe-band && p.CPUTemp <= tsafe+band {
			return visit(c, p)
		}
		return true
	})
}

// VisitSafetySlab streams the grid points of the safety slab X of Step 2 —
// every sampled point whose CPU temperature falls within [tsafe-band,
// tsafe+band] — in SafetySlab's order (utilization-major, then flow, then
// inlet) without materializing the grid cloud. The visitor returns false to
// stop early.
func (s *Space) VisitSafetySlab(tsafe, band units.Celsius, visit func(p Point) bool) error {
	if band <= 0 {
		return errBandNotPositive
	}
	t := s.tabs
	visited := 0
	defer func() {
		if m := s.metrics(); m != nil {
			m.slabScans.Inc()
			m.slabScanPoints.Observe(float64(visited))
		}
	}()
	for iu, u := range t.uAxis {
		for c := 0; c < t.cells; c++ {
			base := c*t.nu + iu
			tcpu := units.Celsius(t.tcpu[base])
			if tcpu < tsafe-band || tcpu > tsafe+band {
				continue
			}
			visited++
			p := Point{
				Utilization: u,
				Flow:        units.LitersPerHour(t.flow[c]),
				Inlet:       units.Celsius(t.inlet[c]),
				CPUTemp:     tcpu,
				Outlet:      units.Celsius(t.tout[base]),
			}
			if !visit(p) {
				return nil
			}
		}
	}
	return nil
}

// CellFlowIndex maps a flat candidate-cell index (as passed to VisitPlane
// visitors) to its index on the flow axis.
func (s *Space) CellFlowIndex(cell int) int { return cell / len(s.axes.Inlet) }

// Cells returns the number of (flow, inlet) candidate cells per plane.
func (s *Space) Cells() int { return s.tabs.cells }
