// Package proto is a digital twin of the paper's hardware prototype
// (Sec. IV, Fig. 6): a Dell T7910 with an Intel Xeon E5-2650 V3, a warm TCS
// loop through the CPU cold plate and two TEG hot-side plates, a cold loop
// fed by a ~20 °C natural source, twelve SP 1848-27145 TEGs in two series
// groups of six, and DAQ-style temperature/flow instrumentation.
//
// Each exported campaign reproduces one measurement figure of Sec. IV:
// the TEG thermal-conductance experiment (Fig. 3), voltage versus
// temperature difference and flow (Fig. 7), series scaling (Fig. 8), outlet
// temperature rise (Fig. 9) and CPU temperature maps (Figs. 10-11).
package proto

import (
	"errors"
	"fmt"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/thermalnet"
	"github.com/h2p-sim/h2p/internal/units"
)

// Prototype wires the test bed's components.
type Prototype struct {
	Spec     cpu.Spec
	TEG      teg.Device
	Derating *teg.FlowDerating
	// TempSensor and FlowMeter quantize readings like the Fluke 2638A
	// channels.
	TempSensor hydro.TemperatureSensor
	FlowMeter  hydro.FlowMeter
	// Faults, when non-nil, injects instrumentation faults into the
	// transient campaigns: sensor-stuck faults freeze the DAQ temperature
	// channels (cpu0/cpu1/coolant are fault units 0/1/2, the sample index
	// is the fault interval) with bounded last-good fallback, and a TEG
	// open-circuit fault on unit 0 zeroes the measured voltage. nil — the
	// default — records the physical truth bit-identically to a
	// prototype without the fault layer.
	Faults *fault.Injector
}

// NewDellT7910 returns the calibrated test bed.
func NewDellT7910() *Prototype {
	return &Prototype{
		Spec:       cpu.XeonE52650V3(),
		TEG:        teg.SP1848(),
		Derating:   teg.DefaultFlowDerating(),
		TempSensor: hydro.TemperatureSensor{Resolution: 0.01},
		FlowMeter:  hydro.FlowMeter{Resolution: 1},
	}
}

// LoadPhase is one segment of a transient experiment.
type LoadPhase struct {
	Utilization float64
	Minutes     float64
}

// Fig3Sample is one recorded instant of the conductance experiment.
type Fig3Sample struct {
	Minute      float64
	CPU0Temp    units.Celsius // TEG sandwiched between die and cold plate
	CPU1Temp    units.Celsius // direct cold-plate contact
	CoolantTemp units.Celsius
	TEGVoltage  units.Volts // open-circuit voltage across the on-die TEG
}

// Fig3Result is the full transient trace plus derived observations.
type Fig3Result struct {
	Samples []Fig3Sample
	// PeakCPU0 and PeakCPU1 are the hottest recorded temperatures.
	PeakCPU0, PeakCPU1 units.Celsius
	// MaxOperating echoes the CPU limit for reporting.
	MaxOperating units.Celsius
	// StaleSamples counts temperature readings served from a channel's
	// last-good fallback under an injected sensor fault; DegradedSamples
	// counts readings past the staleness bound (served live and flagged).
	// Both are zero without a fault injector.
	StaleSamples, DegradedSamples int
}

// DefaultFig3Phases returns the paper's 50-minute 0/10/20/0 % profile.
func DefaultFig3Phases() []LoadPhase {
	return []LoadPhase{
		{Utilization: 0.0, Minutes: 12.5},
		{Utilization: 0.1, Minutes: 12.5},
		{Utilization: 0.2, Minutes: 12.5},
		{Utilization: 0.0, Minutes: 12.5},
	}
}

// RunFig3 performs the thermal-conductance experiment: two identical CPUs on
// parallel branches of the warm loop, one with a TEG wedged between die and
// cold plate, one pressed directly. It returns a sample per sampleMinutes.
func (p *Prototype) RunFig3(phases []LoadPhase, coolant units.Celsius, flow units.LitersPerHour, sampleMinutes float64) (Fig3Result, error) {
	if len(phases) == 0 {
		return Fig3Result{}, errors.New("proto: no load phases")
	}
	if sampleMinutes <= 0 {
		return Fig3Result{}, errors.New("proto: sample period must be positive")
	}
	if flow <= 0 {
		return Fig3Result{}, errors.New("proto: flow must be positive")
	}

	var net thermalnet.Network
	coolantNode := net.AddBoundary("coolant", coolant)
	cpu0, err := net.AddNode("cpu0", p.Spec.ThermalCapacitance, coolant)
	if err != nil {
		return Fig3Result{}, err
	}
	plate0, err := net.AddNode("plate0", 100, coolant)
	if err != nil {
		return Fig3Result{}, err
	}
	cpu1, err := net.AddNode("cpu1", p.Spec.ThermalCapacitance, coolant)
	if err != nil {
		return Fig3Result{}, err
	}
	plate1, err := net.AddNode("plate1", 100, coolant)
	if err != nil {
		return Fig3Result{}, err
	}
	// CPU0's heat must cross the nearly adiabatic TEG; CPU1 enjoys metal
	// contact. Both plates couple strongly to the coolant stream.
	if err := net.Connect(cpu0, plate0, p.TEG.ThermalConductance); err != nil {
		return Fig3Result{}, err
	}
	if err := net.Connect(cpu1, plate1, 10); err != nil {
		return Fig3Result{}, err
	}
	for _, pl := range []thermalnet.NodeID{plate0, plate1} {
		if err := net.Connect(pl, coolantNode, 20); err != nil {
			return Fig3Result{}, err
		}
	}

	res := Fig3Result{MaxOperating: p.Spec.MaxOperatingTemp}
	minute := 0.0
	// One last-good guard per DAQ temperature channel; the guards only act
	// when a fault injector marks a channel stuck at a sample.
	maxStale := p.Faults.MaxSensorStale()
	guards := [3]hydro.LastGoodSensor{
		{MaxStale: maxStale}, {MaxStale: maxStale}, {MaxStale: maxStale},
	}
	readChannel := func(sampleIdx, channel int, truth units.Celsius) units.Celsius {
		live := p.TempSensor.Read(truth)
		if p.Faults == nil {
			return live
		}
		v, status := guards[channel].Read(live, p.Faults.SensorStuck(sampleIdx, channel))
		switch status {
		case hydro.SensorStale:
			res.StaleSamples++
		case hydro.SensorDegraded:
			res.DegradedSamples++
		}
		return v
	}
	sampleIdx := 0
	record := func() error {
		t0, err := net.Temp(cpu0)
		if err != nil {
			return err
		}
		t1, err := net.Temp(cpu1)
		if err != nil {
			return err
		}
		pl0, err := net.Temp(plate0)
		if err != nil {
			return err
		}
		voltage := p.TEG.OpenCircuitVoltage(t0 - pl0)
		if p.Faults.TEGOpen(sampleIdx, 0) {
			voltage = 0
		}
		sample := Fig3Sample{
			Minute:      minute,
			CPU0Temp:    readChannel(sampleIdx, 0, t0),
			CPU1Temp:    readChannel(sampleIdx, 1, t1),
			CoolantTemp: readChannel(sampleIdx, 2, coolant),
			TEGVoltage:  voltage,
		}
		sampleIdx++
		res.Samples = append(res.Samples, sample)
		if sample.CPU0Temp > res.PeakCPU0 {
			res.PeakCPU0 = sample.CPU0Temp
		}
		if sample.CPU1Temp > res.PeakCPU1 {
			res.PeakCPU1 = sample.CPU1Temp
		}
		return nil
	}
	if err := record(); err != nil {
		return Fig3Result{}, err
	}
	for _, ph := range phases {
		if ph.Minutes <= 0 || ph.Utilization < 0 || ph.Utilization > 1 {
			return Fig3Result{}, fmt.Errorf("proto: bad phase %+v", ph)
		}
		power := p.Spec.Power(ph.Utilization)
		if err := net.SetPower(cpu0, power); err != nil {
			return Fig3Result{}, err
		}
		if err := net.SetPower(cpu1, power); err != nil {
			return Fig3Result{}, err
		}
		remaining := ph.Minutes
		for remaining > 1e-9 {
			step := sampleMinutes
			if step > remaining {
				step = remaining
			}
			if err := net.Advance(step*60, 0.5); err != nil {
				return Fig3Result{}, err
			}
			minute += step
			remaining -= step
			if err := record(); err != nil {
				return Fig3Result{}, err
			}
		}
	}
	return res, nil
}

// VocSample is one (deltaT, voltage) measurement.
type VocSample struct {
	DeltaT  units.Celsius
	Voltage units.Volts
}

// Fig7Series is the voltage curve of a 6-TEG group at one flow rate.
type Fig7Series struct {
	Flow    units.LitersPerHour
	Samples []VocSample
}

// RunFig7 measures the open-circuit voltage of six series TEGs against the
// coolant temperature difference at each flow rate (warm and cold loops set
// to the same flow, as in the paper).
func (p *Prototype) RunFig7(flows []units.LitersPerHour, dTs []units.Celsius) ([]Fig7Series, error) {
	if len(flows) == 0 || len(dTs) == 0 {
		return nil, errors.New("proto: empty campaign")
	}
	mod, err := teg.NewModule(p.TEG, 6)
	if err != nil {
		return nil, err
	}
	mod.FlowDerating = p.Derating
	out := make([]Fig7Series, 0, len(flows))
	for _, f := range flows {
		if f <= 0 {
			return nil, fmt.Errorf("proto: bad flow %v", f)
		}
		s := Fig7Series{Flow: p.FlowMeter.Read(f)}
		for _, dt := range dTs {
			v := mod.OpenCircuitVoltage(dt, f)
			s.Samples = append(s.Samples, VocSample{DeltaT: dt, Voltage: v})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig8Series is the voltage and maximum power curve for n series TEGs.
type Fig8Series struct {
	N       int
	Voltage []VocSample
	Power   []PowerSample
}

// PowerSample is one (deltaT, power) measurement.
type PowerSample struct {
	DeltaT units.Celsius
	Power  units.Watts
}

// RunFig8 measures open-circuit voltage and matched-load maximum output
// power for different series counts at the 200 L/H reference flow.
func (p *Prototype) RunFig8(ns []int, dTs []units.Celsius) ([]Fig8Series, error) {
	if len(ns) == 0 || len(dTs) == 0 {
		return nil, errors.New("proto: empty campaign")
	}
	const refFlow = 200
	out := make([]Fig8Series, 0, len(ns))
	for _, n := range ns {
		mod, err := teg.NewModule(p.TEG, n)
		if err != nil {
			return nil, err
		}
		mod.FlowDerating = p.Derating
		s := Fig8Series{N: n}
		for _, dt := range dTs {
			pw := mod.MaxPower(dt, refFlow)
			s.Voltage = append(s.Voltage, VocSample{DeltaT: dt, Voltage: mod.OpenCircuitVoltage(dt, refFlow)})
			s.Power = append(s.Power, PowerSample{DeltaT: dt, Power: pw})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig9Point is one outlet-rise measurement.
type Fig9Point struct {
	Utilization float64
	Flow        units.LitersPerHour
	Inlet       units.Celsius
	DeltaTOut   units.Celsius
}

// RunFig9FlowSweep measures deltaT_out-in versus utilization and flow,
// averaged over the given inlet temperatures (Fig. 9a).
func (p *Prototype) RunFig9FlowSweep(utils []float64, flows []units.LitersPerHour, inlets []units.Celsius) ([]Fig9Point, error) {
	if len(utils) == 0 || len(flows) == 0 || len(inlets) == 0 {
		return nil, errors.New("proto: empty campaign")
	}
	var out []Fig9Point
	for _, u := range utils {
		for _, f := range flows {
			var sum units.Celsius
			for _, tin := range inlets {
				_ = tin // inlet temperature does not move the advective rise
				sum += p.Spec.OutletDeltaT(u, f)
			}
			pt := Fig9Point{
				Utilization: u,
				Flow:        f,
				DeltaTOut:   sum / units.Celsius(float64(len(inlets))),
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// RunFig9InletSweep measures deltaT_out-in versus utilization and inlet
// temperature at the fixed prototype flow of 20 L/H (Fig. 9b).
func (p *Prototype) RunFig9InletSweep(utils []float64, inlets []units.Celsius) ([]Fig9Point, error) {
	if len(utils) == 0 || len(inlets) == 0 {
		return nil, errors.New("proto: empty campaign")
	}
	const flow = 20
	var out []Fig9Point
	for _, u := range utils {
		for _, tin := range inlets {
			pt := Fig9Point{
				Utilization: u,
				Flow:        flow,
				Inlet:       tin,
				DeltaTOut:   p.Spec.OutletDeltaT(u, flow),
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// Fig10Point is one CPU temperature/frequency measurement at 20 L/H.
type Fig10Point struct {
	Utilization  float64
	Coolant      units.Celsius
	CPUTemp      units.Celsius
	FrequencyGHz float64
}

// RunFig10 measures CPU temperature and powersave-governor frequency versus
// utilization for each coolant temperature at the prototype flow.
func (p *Prototype) RunFig10(utils []float64, coolants []units.Celsius) ([]Fig10Point, error) {
	if len(utils) == 0 || len(coolants) == 0 {
		return nil, errors.New("proto: empty campaign")
	}
	const flow = 20
	var out []Fig10Point
	for _, tc := range coolants {
		for _, u := range utils {
			pt := Fig10Point{
				Utilization:  u,
				Coolant:      tc,
				CPUTemp:      p.TempSensor.Read(p.Spec.Temperature(u, flow, tc)),
				FrequencyGHz: p.Spec.Frequency(u),
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// Fig11Point is one full-load CPU temperature measurement.
type Fig11Point struct {
	Coolant units.Celsius
	Flow    units.LitersPerHour
	CPUTemp units.Celsius
}

// RunFig11 measures CPU temperature versus coolant temperature at each flow
// rate with the CPU pinned at 100 % utilization.
func (p *Prototype) RunFig11(coolants []units.Celsius, flows []units.LitersPerHour) ([]Fig11Point, error) {
	if len(coolants) == 0 || len(flows) == 0 {
		return nil, errors.New("proto: empty campaign")
	}
	var out []Fig11Point
	for _, f := range flows {
		for _, tc := range coolants {
			pt := Fig11Point{
				Coolant: tc,
				Flow:    f,
				CPUTemp: p.TempSensor.Read(p.Spec.Temperature(1.0, f, tc)),
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
