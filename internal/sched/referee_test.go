package sched

import (
	"fmt"
	"math"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/units"
)

// chooseRef is the Steps 1-3 referee: Choose's uncached outcome in the
// seed's formulation, written on the interpolated look-up (Space.CPUTemp)
// and the module's own MaxPower (PowerAt) and never touching the candidate
// tables, the slab rows or the power curve. It draws the (quantized) plane,
// keeps the (flow, inlet) grid settings whose CPU temperature lies within
// TSafe±Band, falls back to every setting at or below TSafe+Band when none
// does, and returns the first strictly most powerful candidate in
// flow-major order. Choose must reproduce it bit for bit, error text
// included.
func (c *Controller) chooseRef(planeU float64, cold units.Celsius) (Setting, units.Watts, error) {
	if planeU < 0 || planeU > 1 {
		return Setting{}, 0, fmt.Errorf("sched: utilization %v outside [0,1]", planeU)
	}
	planeU = c.quantizePlane(planeU)
	if c.Band <= 0 {
		return Setting{}, 0, lookup.ErrBandNotPositive
	}
	ax := c.Space.Axes()
	lo, hi := c.TSafe-c.Band, c.TSafe+c.Band
	best, bestP, found := Setting{}, units.Watts(-1), false
	for _, inBand := range []func(units.Celsius) bool{
		func(t units.Celsius) bool { return t >= lo && t <= hi },
		func(t units.Celsius) bool { return t <= hi }, // the safety fallback
	} {
		for _, f := range ax.Flow {
			for _, tin := range ax.Inlet {
				s := Setting{Flow: units.LitersPerHour(f), Inlet: units.Celsius(tin)}
				if !inBand(c.Space.CPUTemp(planeU, s.Flow, s.Inlet)) {
					continue
				}
				found = true
				if pw := c.PowerAt(s, planeU, cold); pw > bestP {
					best, bestP = s, pw
				}
			}
		}
		if found {
			return best, bestP, nil
		}
	}
	return Setting{}, 0, fmt.Errorf("sched: no safe cooling setting for u=%v", planeU)
}

// decideSerial is the scalar referee of the decision path: one Choose on the
// plane utilization (pinned to chooseRef by TestChooseMatchesReference; the
// counter suites rely on decideSerial going through Choose's call
// accounting), then per-server evaluation through the interpolated
// look-up calls and the module's own MaxPower (PowerAt), one circulation at
// a time. DecideBatchCold — and Decide, its single-group adapter — must
// reproduce it bit for bit: this package's equivalence suites and
// FuzzDecideBatchEquivalence compare the two arithmetics. The returned
// Decision owns freshly allocated per-server slices.
func (c *Controller) decideSerial(us []float64, scheme Scheme, cold units.Celsius) (Decision, error) {
	planeU, err := PlaneUtilization(us, scheme)
	if err != nil {
		return Decision{}, err
	}
	setting, _, err := c.Choose(planeU, cold)
	if err != nil {
		return Decision{}, err
	}
	eff, err := EffectiveUtilizations(us, scheme)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{
		Scheme:            scheme,
		PlaneU:            planeU,
		Setting:           setting,
		PerServerPower:    make([]units.Watts, len(eff)),
		PerServerCPUPower: make([]units.Watts, len(eff)),
		PlaneOutlet:       c.Space.OutletTemp(planeU, setting.Flow, setting.Inlet),
	}
	spec := c.Space.Spec()
	if scheme == LoadBalance {
		// Balancing makes every server identical: evaluate the per-server
		// terms once and broadcast. eff[i] are all the same value, so the
		// broadcast is bit-identical to the per-server loop below.
		u := eff[0]
		pw := c.PowerAt(setting, u, cold)
		cp := spec.Power(u)
		for i := range eff {
			d.PerServerPower[i] = pw
			d.PerServerCPUPower[i] = cp
		}
		if t := c.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
		return d, nil
	}
	for i, u := range eff {
		d.PerServerPower[i] = c.PowerAt(setting, u, cold)
		d.PerServerCPUPower[i] = spec.Power(u)
		if t := c.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
	}
	return d, nil
}

// scanRowsRef is the miss-scan kernel's referee: the loop scanRows ran
// before its early exit, over rows in ascending cell order, keeping the
// first strictly greater power. scanRows must reproduce its outcome from
// rows in any order (sorted or not) bit for bit: whether any row passed,
// the best power's bits and the best cell.
func (pc *powerCurve) scanRowsRef(rows []lookup.SlabRow, w0, w1, lo, hi, cold float64) (int, units.Watts, int32) {
	f0, f1, f2 := pc.fit[0], pc.fit[1], pc.fit[2]
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
			x := math.Abs(dT * pc.factors[r.FlowIdx])
			p := f0 + f1*x + f2*x*x
			if p < 0 {
				p = 0
			}
			pw = units.Watts(p * pc.n)
		}
		if pw > bestP {
			bestP, bestCell = pw, r.Cell
		}
	}
	return n, bestP, bestCell
}
