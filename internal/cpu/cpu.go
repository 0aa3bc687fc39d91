// Package cpu models the water-cooled processor of the H2P prototype: an
// Intel Xeon E5-2650 V3 running the "powersave" frequency governor, as
// characterized in Sec. IV of the paper.
//
// The model has three calibrated pieces:
//
//   - Power vs. utilization (Eq. 20): P = 109.71*ln(u + 1.17) - 7.83 W with
//     u in [0, 1], spanning ~9.4 W idle to ~77.2 W at full load.
//   - Die temperature vs. (utilization, flow, inlet temperature): the linear
//     map T_CPU = k(f)*T_in + R_th(f)*P(u) of Figs. 10-11, with k in
//     [1, 1.3] decreasing in flow and the thermal resistance saturating
//     above ~250 L/H.
//   - Coolant outlet temperature (Eq. 8 / Fig. 9): the inlet temperature
//     plus the advective rise P/(m_dot*c_w), 1-3.5 °C at the prototype flow.
package cpu

import (
	"errors"
	"math"

	"github.com/h2p-sim/h2p/internal/units"
)

// Spec describes a processor model and its calibrated thermal parameters.
type Spec struct {
	// Model is the marketing name.
	Model string
	// MaxOperatingTemp is the vendor limit (78.9 °C for the E5-2650 V3).
	MaxOperatingTemp units.Celsius
	// SafeTemp is the operating target used by the cooling optimizer
	// (~80 % of the maximum; the paper uses 62 °C in Fig. 13).
	SafeTemp units.Celsius
	// PowerLogCoeff, PowerLogShift, PowerOffset parameterize Eq. 20:
	// P(u) = PowerLogCoeff*ln(u + PowerLogShift) + PowerOffset.
	PowerLogCoeff, PowerLogShift, PowerOffset float64
	// BaseFreqGHz and MaxPowersaveFreqGHz bound the powersave governor
	// curve of Fig. 10 (settles at ~2.5 GHz above 50 % utilization).
	BaseFreqGHz, MaxPowersaveFreqGHz float64
	// CouplingAtRef is k at the reference flow (1.3 at 20 L/H); the
	// coupling decays toward 1 as flow grows (Fig. 11 slope observation).
	CouplingAtRef float64
	// CouplingRefFlow is the flow at which CouplingAtRef applies.
	CouplingRefFlow units.LitersPerHour
	// CouplingExponent shapes the decay of (k-1) with flow.
	CouplingExponent float64
	// RthConduction is the flow-independent part of the die-to-coolant
	// thermal resistance in °C/W.
	RthConduction float64
	// RthConvectionCoeff scales the 1/f convective term in °C/W per
	// (1/L/H); cooling improvement saturates above ~250 L/H (Fig. 11).
	RthConvectionCoeff float64
	// ThermalCapacitance is the lumped die+spreader heat capacity in J/°C
	// used by transient simulations (Fig. 3).
	ThermalCapacitance float64
}

// XeonE52650V3 returns the calibrated model of the prototype CPU. The free
// coefficients are fixed so that the published anchor points hold at the
// prototype flow of 20 L/H:
//
//   - 40-45 °C water keeps T_CPU below 78.9 °C even at 100 % utilization;
//   - water above 50 °C with utilization above 70 % exceeds 78.9 °C;
//   - k stays within the paper's stated [1, 1.3] range.
func XeonE52650V3() Spec {
	return Spec{
		Model:               "Intel Xeon E5-2650 V3",
		MaxOperatingTemp:    78.9,
		SafeTemp:            62,
		PowerLogCoeff:       109.71,
		PowerLogShift:       1.17,
		PowerOffset:         -7.83,
		BaseFreqGHz:         1.2,
		MaxPowersaveFreqGHz: 2.5,
		CouplingAtRef:       1.3,
		CouplingRefFlow:     20,
		CouplingExponent:    0.47,
		RthConduction:       0.10,
		RthConvectionCoeff:  3.2,
		ThermalCapacitance:  250,
	}
}

// Validate reports whether the spec is self-consistent.
func (s Spec) Validate() error {
	if s.MaxOperatingTemp <= 0 {
		return errors.New("cpu: MaxOperatingTemp must be positive")
	}
	if s.SafeTemp <= 0 || s.SafeTemp >= s.MaxOperatingTemp {
		return errors.New("cpu: SafeTemp must be in (0, MaxOperatingTemp)")
	}
	if s.PowerLogShift <= 0 {
		return errors.New("cpu: PowerLogShift must be positive")
	}
	if s.CouplingAtRef < 1 {
		return errors.New("cpu: CouplingAtRef must be >= 1")
	}
	if s.CouplingRefFlow <= 0 {
		return errors.New("cpu: CouplingRefFlow must be positive")
	}
	if s.RthConduction < 0 || s.RthConvectionCoeff < 0 {
		return errors.New("cpu: thermal resistances must be non-negative")
	}
	if s.ThermalCapacitance <= 0 {
		return errors.New("cpu: ThermalCapacitance must be positive")
	}
	return nil
}

// XeonE52680V4 returns a higher-TDP server SKU (120 W class): the same
// functional forms recalibrated so the paper's safety structure holds — the
// point of Sec. VII's claim that "H2P suits all types of CPUs". Power spans
// ~11 W idle to ~88 W at full load; the hotter die tolerates slightly less
// inlet headroom.
func XeonE52680V4() Spec {
	s := XeonE52650V3()
	s.Model = "Intel Xeon E5-2680 V4"
	s.MaxOperatingTemp = 82
	s.SafeTemp = 65
	s.PowerLogCoeff = 125.0
	s.PowerOffset = -8.6
	return s
}

// XeonD1540 returns a low-power edge SKU (45 W class): ~5 W idle to ~33 W
// at full load, with a cooler safety target.
func XeonD1540() Spec {
	s := XeonE52650V3()
	s.Model = "Intel Xeon D-1540"
	s.MaxOperatingTemp = 75
	s.SafeTemp = 60
	s.PowerLogCoeff = 46.0
	s.PowerOffset = -2.2
	s.BaseFreqGHz = 1.0
	s.MaxPowersaveFreqGHz = 2.0
	s.ThermalCapacitance = 150
	return s
}

// Power returns the electrical power draw at utilization u in [0, 1]
// (Eq. 20). Utilization is clamped to [0, 1].
func (s Spec) Power(u float64) units.Watts {
	u = units.Clamp(u, 0, 1)
	return units.Watts(s.PowerLogCoeff*math.Log(u+s.PowerLogShift) + s.PowerOffset)
}

// Frequency returns the powersave-governor clock in GHz at utilization u:
// rising from the base frequency and settling at the powersave ceiling above
// 50 % utilization (Fig. 10).
func (s Spec) Frequency(u float64) float64 {
	u = units.Clamp(u, 0, 1)
	ramp := math.Min(u/0.5, 1)
	// Sub-linear ramp: frequency "starts to increase slower" as
	// utilization approaches the plateau.
	return s.BaseFreqGHz + (s.MaxPowersaveFreqGHz-s.BaseFreqGHz)*math.Pow(ramp, 0.8)
}

// Coupling returns k(f): the slope of T_CPU versus coolant temperature at
// flow f (Fig. 11). It is CouplingAtRef at the reference flow, decays toward
// 1 with increasing flow, and is clamped to [1, CouplingAtRef].
func (s Spec) Coupling(f units.LitersPerHour) float64 {
	if f <= s.CouplingRefFlow {
		return s.CouplingAtRef
	}
	k := 1 + (s.CouplingAtRef-1)*math.Pow(float64(s.CouplingRefFlow)/float64(f), s.CouplingExponent)
	return units.Clamp(k, 1, s.CouplingAtRef)
}

// ThermalResistance returns the die-to-coolant thermal resistance in °C/W at
// flow f: a conduction floor plus a convective term that shrinks with flow
// and saturates above ~250 L/H (Fig. 11).
func (s Spec) ThermalResistance(f units.LitersPerHour) float64 {
	ff := math.Max(float64(f), 1)
	return s.RthConduction + s.RthConvectionCoeff/ff
}

// Temperature returns the steady-state die temperature for utilization u,
// coolant flow f and inlet water temperature tin:
//
//	T_CPU = k(f)*T_in + R_th(f)*P(u).
func (s Spec) Temperature(u float64, f units.LitersPerHour, tin units.Celsius) units.Celsius {
	return units.Celsius(s.Coupling(f)*float64(tin) + s.ThermalResistance(f)*float64(s.Power(u)))
}

// OutletDeltaT returns the coolant temperature rise across the CPU cold
// plate, Eq. 8 / Fig. 9: the advective rise of a stream absorbing P(u). The
// outlet temperature is T_warm_out = T_warm_in + OutletDeltaT (Eq. 8).
func (s Spec) OutletDeltaT(u float64, f units.LitersPerHour) units.Celsius {
	return units.AdvectionDeltaT(s.Power(u), f)
}
