package sched

import (
	"math"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/units"
)

// powerCurve is the TEG module's power-vs-outlet-temperature curve,
// precomputed once per controller. A candidate's module output depends only
// on its outlet temperature, the interval's cold-side temperature and —
// through the optional flow derating — its flow cell. The seed evaluated
// teg.Module.MaxPower per candidate, which pays two math.Exp calls (the
// derating factor) for every one of the ~1.4k candidate cells on every cache
// miss; the curve hoists the per-flow factors and the Eq. 6 quadratic
// coefficients so the scan is a handful of multiply-adds per candidate,
// bit-identical to the module path. The cold side is a per-call argument:
// the pluggable environment varies it by interval.
type powerCurve struct {
	n       float64    // TEGs in series (Eq. 7 scales per-device power by n)
	fit     [3]float64 // Eq. 6 quadratic: fit[0] + fit[1]*x + fit[2]*x*x
	ni      int        // inlet-axis length: candidate cell -> flow index
	factors []float64  // per-flow-index derating factor (1.0 when no derating)
}

// newPowerCurve precomputes the curve for the module against the space's
// flow axis. The module must be fully configured (including FlowDerating)
// before the controller is built; NewController documents that contract.
func newPowerCurve(space *lookup.Space, module *teg.Module) *powerCurve {
	ax := space.Axes()
	pc := &powerCurve{
		n:       float64(module.N),
		fit:     module.Device.PmaxFit,
		ni:      len(ax.Inlet),
		factors: make([]float64, len(ax.Flow)),
	}
	for j, f := range ax.Flow {
		if module.FlowDerating != nil {
			pc.factors[j] = module.FlowDerating.Factor(units.LitersPerHour(f))
		} else {
			pc.factors[j] = 1
		}
	}
	return pc
}

// scanRows is the miss scan's one kernel. For a plane with blend weights
// (w0, w1) it keeps each row whose blended CPU temperature ct satisfies
// ct >= lo && ct <= hi — PlaneIntersection's band predicate, so a NaN never
// passes — blends the kept row's outlet temperature, evaluates the module
// output on it and keeps the first strictly greater power. Rows arrive in
// ascending cell order, so the winner is the seed's argmax exactly. It
// returns the member count, the best power (-1 when no row passes) and the
// best cell.
//
// The power's operation sequence replicates Controller.PowerAt ->
// Module.MaxPower -> Device.MaxPowerEmpirical exactly, so the curve and the
// module produce bit-identical watts: multiplying by the row's precomputed
// flow factor (the row carries its flow index, so the lookup needs no
// division) equals Module.effectiveDeltaT (a factor of exactly 1.0 is the
// IEEE identity), and the quadratic is evaluated in MaxPowerEmpirical's
// order.
func (pc *powerCurve) scanRows(rows []lookup.SlabRow, w0, w1, lo, hi, cold float64) (int, units.Watts, int32) {
	f0, f1, f2 := pc.fit[0], pc.fit[1], pc.fit[2]
	scale := pc.n
	factors := pc.factors
	n := 0
	bestP := units.Watts(-1)
	bestCell := int32(0)
	for i := range rows {
		r := &rows[i]
		if ct := w0*r.C0 + w1*r.C1; !(ct >= lo && ct <= hi) {
			continue
		}
		n++
		var pw units.Watts
		if dT := w0*r.O0 + w1*r.O1 - cold; dT > 0 {
			x := math.Abs(dT * factors[r.FlowIdx])
			p := f0 + f1*x + f2*x*x
			if p < 0 {
				p = 0
			}
			pw = units.Watts(p * scale)
		}
		if pw > bestP {
			bestP, bestCell = pw, r.Cell
		}
	}
	return n, bestP, bestCell
}

// powerAtColumn is scanRows' power evaluation over a column of outlet
// temperatures at one fixed cell: the per-cell derating factor and the fit
// coefficients are hoisted out of the loop, with the identical per-element
// operation sequence, so every output is bit-identical to Controller.PowerAt.
func (pc *powerCurve) powerAtColumn(cell int, outs []float64, dst []units.Watts, cold float64) {
	factor := pc.factors[cell/pc.ni]
	f0, f1, f2 := pc.fit[0], pc.fit[1], pc.fit[2]
	n := pc.n
	for i, out := range outs {
		dT := out - cold
		if dT <= 0 {
			dst[i] = 0
			continue
		}
		x := math.Abs(dT * factor)
		p := f0 + f1*x + f2*x*x
		if p < 0 {
			p = 0
		}
		dst[i] = units.Watts(p * n)
	}
}
