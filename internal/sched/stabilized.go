package sched

import (
	"errors"

	"github.com/h2p-sim/h2p/internal/units"
)

// StabilizedController wraps a Controller with actuation hysteresis. The
// paper re-optimizes {flow, inlet temperature} every 5-minute interval;
// naively that commands the CDU's valves and the chiller setpoint on every
// tick. The stabilized controller keeps the previous setting unless it has
// become unsafe for the new utilization or re-optimizing would gain more
// than GainThreshold watts per server — trading a sliver of harvest for far
// fewer setpoint changes.
type StabilizedController struct {
	// Inner performs the actual optimization.
	Inner *Controller
	// GainThreshold is the minimum per-server power improvement that
	// justifies changing the cooling setting.
	GainThreshold units.Watts

	last    Setting
	hasLast bool
	// Changes and Intervals count actuations for reporting.
	Changes, Intervals int
}

// NewStabilizedController wraps the controller with the given deadband.
func NewStabilizedController(inner *Controller, gainThreshold units.Watts) (*StabilizedController, error) {
	if inner == nil {
		return nil, errors.New("sched: nil inner controller")
	}
	if gainThreshold < 0 {
		return nil, errors.New("sched: negative gain threshold")
	}
	return &StabilizedController{Inner: inner, GainThreshold: gainThreshold}, nil
}

// Decide runs one control interval with hysteresis, against the inner
// controller's default cold side (ColdSource).
func (s *StabilizedController) Decide(us []float64, scheme Scheme) (Decision, error) {
	planeU, err := PlaneUtilization(us, scheme)
	if err != nil {
		return Decision{}, err
	}
	s.Intervals++
	setting, bestPower, err := s.Inner.Choose(planeU, s.Inner.ColdSource)
	if err != nil {
		return Decision{}, err
	}
	// Is the held setting still safe and close enough to optimal?
	if s.hasLast {
		heldTemp := s.Inner.Space.CPUTemp(planeU, s.last.Flow, s.last.Inlet)
		if heldTemp <= s.Inner.TSafe+s.Inner.Band {
			heldPower := s.Inner.PowerAt(s.last, planeU, s.Inner.ColdSource)
			if bestPower-heldPower <= s.GainThreshold {
				return s.decideWith(s.last, us, scheme, planeU)
			}
		}
	}
	if !s.hasLast || setting != s.last {
		s.Changes++
	}
	s.last = setting
	s.hasLast = true
	return s.decideWith(setting, us, scheme, planeU)
}

// decideWith evaluates the per-server outcome under a fixed setting.
func (s *StabilizedController) decideWith(setting Setting, us []float64, scheme Scheme, planeU float64) (Decision, error) {
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
		PlaneOutlet:       s.Inner.Space.OutletTemp(planeU, setting.Flow, setting.Inlet),
	}
	spec := s.Inner.Space.Spec()
	for i, u := range eff {
		d.PerServerPower[i] = s.Inner.PowerAt(setting, u, s.Inner.ColdSource)
		d.PerServerCPUPower[i] = spec.Power(u)
		if t := s.Inner.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
	}
	return d, nil
}
