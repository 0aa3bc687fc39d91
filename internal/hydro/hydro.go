// Package hydro models the hydraulic building blocks of the H2P water loops
// (Fig. 1 and the prototype of Fig. 6): variable-speed pumps, liquid-to-liquid
// heat exchangers, and the temperature/flow instrumentation of the test bed.
// The natural cold-water source is an environment input (internal/env).
//
// All components are steady-state per simulation interval: coolant transport
// delays (seconds) are far below the 5-minute control interval the paper
// uses, so per-interval equilibrium is the appropriate fidelity.
package hydro

import (
	"errors"
	"fmt"
	"math"

	"github.com/h2p-sim/h2p/internal/units"
)

// Pump is a variable-speed circulation pump. Electrical power follows the
// cubic affinity law P = (f/MaxFlow)^3 * Rated.
type Pump struct {
	// Name identifies the pump.
	Name string
	// MaxFlow is the maximum deliverable flow.
	MaxFlow units.LitersPerHour
	// RatedPower is the shaft power at maximum flow.
	RatedPower units.Watts

	flow units.LitersPerHour
}

// SetFlow commands the pump to the given flow. It returns an error if the
// request is negative or exceeds the pump's capability.
func (p *Pump) SetFlow(f units.LitersPerHour) error {
	if f < 0 {
		return fmt.Errorf("hydro: pump %s: negative flow %v", p.Name, f)
	}
	if f > p.MaxFlow {
		return fmt.Errorf("hydro: pump %s: flow %v exceeds max %v", p.Name, f, p.MaxFlow)
	}
	p.flow = f
	return nil
}

// Power returns the pump's electrical draw at the current setpoint.
func (p *Pump) Power() units.Watts {
	if p.MaxFlow == 0 {
		return 0
	}
	ratio := float64(p.flow) / float64(p.MaxFlow)
	return units.Watts(math.Pow(ratio, 3)) * p.RatedPower
}

// HeatExchanger is a counter-flow liquid-to-liquid heat exchanger (the CDU
// element separating TCS from FWS in Fig. 1), modeled with the
// effectiveness-NTU method.
type HeatExchanger struct {
	// UA is the overall conductance in W/°C.
	UA float64
}

// HXResult reports the outcome of one heat-exchanger evaluation.
type HXResult struct {
	HotOut, ColdOut units.Celsius
	Heat            units.Watts // transferred from hot to cold stream
	Effectiveness   float64
}

// Exchange computes the steady-state outlet temperatures for a hot stream
// (hotIn, hotFlow) and a cold stream (coldIn, coldFlow).
func (hx HeatExchanger) Exchange(hotIn units.Celsius, hotFlow units.LitersPerHour, coldIn units.Celsius, coldFlow units.LitersPerHour) (HXResult, error) {
	ch := hotFlow.HeatCapacityRate()
	cc := coldFlow.HeatCapacityRate()
	if ch <= 0 || cc <= 0 {
		return HXResult{}, errors.New("hydro: heat exchanger requires positive flows on both sides")
	}
	cmin, cmax := math.Min(ch, cc), math.Max(ch, cc)
	cr := cmin / cmax
	ntu := hx.UA / cmin
	var eff float64
	if math.Abs(cr-1) < 1e-12 {
		eff = ntu / (1 + ntu)
	} else {
		e := math.Exp(-ntu * (1 - cr))
		eff = (1 - e) / (1 - cr*e)
	}
	q := eff * cmin * float64(hotIn-coldIn)
	return HXResult{
		HotOut:        hotIn - units.Celsius(q/ch),
		ColdOut:       coldIn + units.Celsius(q/cc),
		Heat:          units.Watts(q),
		Effectiveness: eff,
	}, nil
}

// TemperatureSensor quantizes a reading like the prototype's DAQ channels.
type TemperatureSensor struct {
	// Resolution is the quantization step in °C (0 disables quantization).
	Resolution units.Celsius
}

// Read returns the sensor's report of the true temperature.
func (s TemperatureSensor) Read(truth units.Celsius) units.Celsius {
	if s.Resolution <= 0 {
		return truth
	}
	steps := math.Round(float64(truth) / float64(s.Resolution))
	return units.Celsius(steps) * s.Resolution
}

// FlowMeter quantizes a flow reading.
type FlowMeter struct {
	// Resolution is the quantization step in L/H (0 disables quantization).
	Resolution units.LitersPerHour
}

// Read returns the meter's report of the true flow.
func (m FlowMeter) Read(truth units.LitersPerHour) units.LitersPerHour {
	if m.Resolution <= 0 {
		return truth
	}
	steps := math.Round(float64(truth) / float64(m.Resolution))
	return units.LitersPerHour(steps) * m.Resolution
}
