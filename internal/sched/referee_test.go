package sched

import "github.com/h2p-sim/h2p/internal/units"

// decideSerial is the scalar referee of the decision path: one Choose on the
// plane utilization, then per-server evaluation through the interpolated
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
