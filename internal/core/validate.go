package core

import (
	"errors"
	"fmt"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/thermalnet"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// QuasiStaticReport quantifies how well the engine's per-interval
// steady-state assumption holds against a transient RC simulation of the
// same control decisions.
//
// The engine treats every 5-minute interval as an equilibrium: the die
// temperature is the steady-state map at that interval's utilization and
// cooling setting. The validator replays a sample of intervals through the
// lumped RC network (die capacitance ~250 J/°C against the coolant through
// R_th(f)), carrying temperature state across interval boundaries, and
// reports the largest discrepancies.
type QuasiStaticReport struct {
	// IntervalsChecked and ServersChecked size the sample.
	IntervalsChecked, ServersChecked int
	// MaxEndOfIntervalError is the worst |transient - steady| at interval
	// ends, where the engine reads temperatures.
	MaxEndOfIntervalError units.Celsius
	// MaxMidIntervalExcursion is the worst transient overshoot above the
	// steady-state target observed anywhere inside intervals.
	MaxMidIntervalExcursion units.Celsius
	// MaxTempSeen is the hottest transient die temperature.
	MaxTempSeen units.Celsius
}

// ValidateQuasiStatic replays the first circulation of the trace under the
// engine's scheme through a transient RC model for up to maxIntervals
// control intervals.
func (e *Engine) ValidateQuasiStatic(tr *trace.Trace, maxIntervals int) (QuasiStaticReport, error) {
	if err := tr.Validate(); err != nil {
		return QuasiStaticReport{}, err
	}
	if maxIntervals <= 0 {
		return QuasiStaticReport{}, errors.New("core: maxIntervals must be positive")
	}
	n := e.cfg.ServersPerCirculation
	if n > tr.Servers() {
		n = tr.Servers()
	}
	intervals := tr.Intervals()
	if intervals > maxIntervals {
		intervals = maxIntervals
	}
	spec := e.cfg.Spec

	// One RC node per server in the circulation; the coolant boundary is
	// shared and moved to k(f)*T_in each interval.
	var net thermalnet.Network
	net.AttachTelemetry(e.cfg.Telemetry)
	boundary := net.AddBoundary("coolant", 0)
	dies := make([]thermalnet.NodeID, n)
	for s := 0; s < n; s++ {
		id, err := net.AddNode(fmt.Sprintf("die-%d", s), spec.ThermalCapacitance, 0)
		if err != nil {
			return QuasiStaticReport{}, err
		}
		dies[s] = id
	}
	connected := false

	rep := QuasiStaticReport{ServersChecked: n}
	col := make([]float64, tr.Servers())
	var sc sched.Scratch
	secs := tr.Interval.Seconds()
	const probe = 10.0 // seconds between mid-interval checks
	for i := 0; i < intervals; i++ {
		var err error
		col, err = tr.Column(i, col)
		if err != nil {
			return QuasiStaticReport{}, err
		}
		us := col[:n]
		d, err := e.controller.Decide(us, e.cfg.Scheme, e.controller.ColdSource, &sc)
		if err != nil {
			return QuasiStaticReport{}, err
		}
		eff, err := sched.EffectiveUtilizations(us, e.cfg.Scheme)
		if err != nil {
			return QuasiStaticReport{}, err
		}
		g := 1 / spec.ThermalResistance(d.Setting.Flow)
		bTemp := units.Celsius(spec.Coupling(d.Setting.Flow) * float64(d.Setting.Inlet))
		if err := net.SetBoundaryTemp(boundary, bTemp); err != nil {
			return QuasiStaticReport{}, err
		}
		if !connected {
			// Conductance is flow-dependent, but the chosen flow is
			// nearly constant across intervals (the optimizer pins
			// high flow); connect once at the first decision's value.
			for _, id := range dies {
				if err := net.Connect(id, boundary, g); err != nil {
					return QuasiStaticReport{}, err
				}
			}
			connected = true
		}
		steady := make([]units.Celsius, n)
		for s, id := range dies {
			if err := net.SetPower(id, spec.Power(eff[s])); err != nil {
				return QuasiStaticReport{}, err
			}
			steady[s] = spec.Temperature(eff[s], d.Setting.Flow, d.Setting.Inlet)
		}
		if i == 0 {
			// Settle to the initial steady state so the comparison
			// starts clean.
			if _, err := net.SteadyState(1e-6, 1e5, 0.5); err != nil {
				return QuasiStaticReport{}, err
			}
		}
		for elapsed := 0.0; elapsed < secs; elapsed += probe {
			step := probe
			if elapsed+step > secs {
				step = secs - elapsed
			}
			if err := net.Advance(step, 0.5); err != nil {
				return QuasiStaticReport{}, err
			}
			for s, id := range dies {
				temp, err := net.Temp(id)
				if err != nil {
					return QuasiStaticReport{}, err
				}
				if temp > rep.MaxTempSeen {
					rep.MaxTempSeen = temp
				}
				if exc := temp - steady[s]; exc > rep.MaxMidIntervalExcursion {
					rep.MaxMidIntervalExcursion = exc
				}
			}
		}
		for s, id := range dies {
			temp, err := net.Temp(id)
			if err != nil {
				return QuasiStaticReport{}, err
			}
			diff := temp - steady[s]
			if diff < 0 {
				diff = -diff
			}
			if diff > rep.MaxEndOfIntervalError {
				rep.MaxEndOfIntervalError = diff
			}
		}
		rep.IntervalsChecked++
	}
	return rep, nil
}
