package lookup

import (
	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/units"
)

// candTables is the space's one store of samples, laid out for the
// per-interval decision hot path. The cooling controller scans the
// (flow, inlet) candidate cells once per distinct plane; a candidate costs
// two multiply-adds per temperature with zero allocations (batch.go packs
// them into the miss scan's slab rows), and the scalar look-ups
// (Space.CPUTemp, Space.OutletTemp) interpolate the same samples.
//
// Layout: cells are numbered flow-major (cell = flowIdx*len(Inlet)+inletIdx,
// the exact iteration order of PlaneIntersection), and for each cell the
// utilization stencil is contiguous: tcpu[cell*nu+iu] is the sampled CPU
// temperature at (Utilization[iu], Flow[cell/ni], Inlet[cell%ni]). Because flow
// and inlet sit exactly on grid nodes, trilinear interpolation at a plane u
// degenerates to the linear blend w0*tcpu[cell*nu+i] + w1*tcpu[cell*nu+i+1],
// which reproduces eval bit-for-bit (the collapsed axes contribute exact 0/1
// weights, and IEEE addition of the zero terms is exact).
type candTables struct {
	nu    int // len(axes.Utilization): stencil stride
	cells int // len(axes.Flow) * len(axes.Inlet)
	ni    int // len(axes.Inlet): cell -> flow index divisor
	// The three axes (shared with Space.axes).
	uAxis, fAxis, iAxis []float64
	// uScale maps an in-axis utilization to locate's first guess at its
	// segment: (nu-1) / (last node - first node).
	uScale float64
	tcpu   []float64 // per-cell utilization stencils, len cells*nu
	tout   []float64 // per-cell utilization stencils, len cells*nu
}

// sampleTables samples the CPU model at every grid node straight into the
// cell-major stencils. Each transcendental term is evaluated once per axis
// node: Spec.Power per utilization node, Coupling and ThermalResistance per
// flow node, and the advective rise (Spec.OutletDeltaT) per (utilization,
// flow) pair. A sample is then Spec.Temperature's last step, k*tin + rth*p,
// or Eq. 8's outlet, tin + rise, over those terms, in the same expression
// shape and on the same float64 values the model's own conversions produce,
// so it equals calling the model at the node bit for bit, also where the
// compiler fuses a multiply-add: both shapes fuse alike.
func sampleTables(spec cpu.Spec, axes Axes) *candTables {
	ua, fa, ia := axes.Utilization, axes.Flow, axes.Inlet
	nu, ni := len(ua), len(ia)
	cells := len(fa) * ni
	t := &candTables{
		nu:     nu,
		cells:  cells,
		ni:     ni,
		uAxis:  ua,
		fAxis:  fa,
		iAxis:  ia,
		uScale: float64(nu-1) / (ua[nu-1] - ua[0]),
		tcpu:   make([]float64, cells*nu),
		tout:   make([]float64, cells*nu),
	}
	power := make([]float64, nu)
	for i, u := range ua {
		power[i] = float64(spec.Power(u))
	}
	rise := make([]float64, nu)
	for j, f := range fa {
		flow := units.LitersPerHour(f)
		k, rth := spec.Coupling(flow), spec.ThermalResistance(flow)
		for i, p := range power {
			rise[i] = float64(units.AdvectionDeltaT(units.Watts(p), flow))
		}
		for m, tin := range ia {
			base := (j*ni + m) * nu
			tc := t.tcpu[base : base+nu]
			to := t.tout[base : base+nu]
			for i, p := range power {
				tc[i] = k*tin + rth*p
				to[i] = tin + rise[i]
			}
		}
	}
	return t
}

// eval trilinearly interpolates one store (tcpu or tout) at (u, f, tin),
// extrapolating from the boundary cells outside the grid. Each axis cell is
// numeric.Cell's (locate's, on the utilization axis), and the eight corners
// are summed in utilization-, then flow-, then inlet-major order with
// weights wx*wy*wz, so the result does not depend on the store's layout.
func (t *candTables) eval(vals []float64, u, f, tin float64) float64 {
	i, tx := t.locate(u)
	j, ty := numeric.Cell(t.fAxis, f)
	k, tz := numeric.Cell(t.iAxis, tin)
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
				v += wx * wy * wz * vals[((j+dj)*t.ni+k+dk)*t.nu+i+di]
			}
		}
	}
	return v
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
