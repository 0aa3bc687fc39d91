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
// derating factor) for every candidate cell on every cache miss; the curve
// hoists the per-flow factors and the Eq. 6 quadratic coefficients so the
// scan is a handful of multiply-adds per candidate, bit-identical to the
// module path. The cold side is a per-call argument: the pluggable
// environment varies it by interval.
type powerCurve struct {
	n       float64    // TEGs in series (Eq. 7 scales per-device power by n)
	fit     [3]float64 // Eq. 6 quadratic: fit[0] + fit[1]*x + fit[2]*x*x
	ni      int        // inlet-axis length: candidate cell -> flow index
	factors []float64  // per-flow-index derating factor (1.0 when no derating)
	fmax    float64    // max |factor|: bound's derating of the outlet ΔT
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
		pc.fmax = max(pc.fmax, math.Abs(pc.factors[j]))
	}
	return pc
}

// scanRows is the miss scan's one kernel. For a plane with blend weights
// (w0, w1) it keeps each row whose blended CPU temperature ct satisfies
// ct >= lo && ct <= hi — PlaneIntersection's band predicate, so a NaN never
// passes — blends the kept row's outlet temperature, evaluates the module
// output on it and keeps the greatest power, the lowest cell among equal
// powers: the seed's first strictly greater power in cell order, whatever
// order the rows arrive in. It returns the member count, the rows visited,
// the best power (-1 when no row passes) and the best cell.
//
// With sorted set, the rows must be in the segment index's order (hottest
// SlabRow.OutletMax first) and the weights (1-tx, tx) with tx in [0, 1].
// Once a row has passed, the scan stops at the first row whose bound — on
// the watts of any row no hotter than it, so of every row left — is below
// the best power: no later row can win or tie. The rows it skips do not
// change the result; they only leave the member count short, and a count
// that is already positive still reads as a non-empty slab. Full-plane rows
// arrive in cell order and scan to the end.
//
// The power's operation sequence replicates Controller.PowerAt ->
// Module.MaxPower -> Device.MaxPowerEmpirical exactly, so the curve and the
// module produce bit-identical watts: multiplying by the row's precomputed
// flow factor (the row carries its flow index, so the lookup needs no
// division) equals Module.effectiveDeltaT (a factor of exactly 1.0 is the
// IEEE identity), and the quadratic is evaluated in MaxPowerEmpirical's
// order.
func (pc *powerCurve) scanRows(rows []lookup.SlabRow, w0, w1, lo, hi, cold float64, sorted bool) (n, visited int, bestP units.Watts, bestCell int32) {
	f0, f1, f2 := pc.fit[0], pc.fit[1], pc.fit[2]
	scale := pc.n
	factors := pc.factors
	bestP = -1
	for i := range rows {
		r := &rows[i]
		if sorted && bestP >= 0 && units.Watts(pc.bound(r.OutletMax(), cold)) < bestP {
			return n, i, bestP, bestCell
		}
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
		if pw > bestP || (pw == bestP && r.Cell < bestCell) {
			bestP, bestCell = pw, r.Cell
		}
	}
	return n, len(rows), bestP, bestCell
}

// boundEps is the relative margin bound adds for round-off: a thousand
// times the few units of 2^-53 that a blend or a quadratic evaluation can
// err by (EXPERIMENTS.md § Early-exit miss scan gives the argument).
const boundEps = 1e-12

// bound returns an upper bound on the watts scanRows computes for any row
// whose outlet samples are both at most omax, blended with weights
// (1-tx, tx), tx in [0, 1], against the cold side cold. Where omax, cold
// or the curve is not finite enough to bound anything it is NaN or +Inf,
// which stops no scan.
//
// Float operations round monotonically, so a blend of samples at most omax
// is at most the blend of omax with itself, which exceeds omax by a few
// ulps at most: om widens omax past that. The row's derated ΔT is then at
// most x = (om - cold) * fmax, computed with the row's own operations, and
// its quadratic is at most the real quadratic's maximum on [0, x] — at an
// end, or at the vertex when f2 < 0 puts it inside — plus the evaluation
// error margin. Clamping at zero and scaling by n are monotone, as in the
// kernel. In exact arithmetic the bound grows with omax, so on rows sorted
// by OutletMax it never rises along the scan.
func (pc *powerCurve) bound(omax, cold float64) float64 {
	om := omax + boundEps*(math.Abs(omax)+1)
	d := om - cold
	if d <= 0 {
		return 0 // no row has a positive ΔT: every power is zero
	}
	x := d * pc.fmax
	f0, f1, f2 := pc.fit[0], pc.fit[1], pc.fit[2]
	p := max(f0, f0+f1*x+f2*x*x)
	if f2 < 0 {
		// The vertex -f1/(2 f2) computed within a few ulps of x only misses
		// the quadratic's peak by f2 times their squared distance, far
		// inside the margin.
		if xv := -f1 / (2 * f2); xv > 0 && xv < x {
			p = max(p, f0-f1*f1/(4*f2))
		}
	}
	// The smallest normal covers underflow in the row's products.
	p += boundEps*(math.Abs(f0)+math.Abs(f1)*x+math.Abs(f2)*x*x) + 0x1p-1022
	return max(p, 0) * pc.n
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
