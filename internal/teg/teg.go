// Package teg models the thermoelectric generator (TEG) used by H2P: the
// commercially available SP 1848-27145 Bi2Te3 module characterized in
// Sec. III-A and Sec. IV-B of the paper.
//
// Two electrical models are provided and both are exercised by the
// reproduction:
//
//   - The physics model derives output from the Seebeck open-circuit voltage
//     (Eq. 1/3) and the internal resistance: P(R_load) = Voc^2 R_load /
//     (R_load + R_int)^2, maximized at matched load (Eq. 5).
//   - The empirical model evaluates the paper's published quadratic fit of
//     measured maximum output power (Eq. 6/7) directly. All trace-driven
//     evaluation numbers in the paper flow from this fit, so it is the
//     default for experiment reproduction.
package teg

import (
	"errors"
	"fmt"
	"math"

	"github.com/h2p-sim/h2p/internal/units"
)

// Device describes a single TEG's calibrated parameters.
type Device struct {
	// Model is the commercial part name.
	Model string
	// SeebeckSlope is the fitted open-circuit voltage slope in V/°C
	// (Eq. 3: 0.0448 for the SP 1848-27145 at the 200 L/H reference flow).
	SeebeckSlope float64
	// SeebeckOffset is the fitted intercept in V (Eq. 3: -0.0051).
	SeebeckOffset float64
	// InternalResistance is the electrical resistance of one TEG
	// (measured as 2 ohms, Sec. IV-B1).
	InternalResistance units.Ohms
	// ThermalConductance is the heat conducted per degree of temperature
	// difference across the TEG, in W/°C. TEGs are nearly adiabatic
	// (Sec. III-B): the Fig. 3 experiment implies roughly 0.5 W/°C.
	ThermalConductance float64
	// PmaxFit holds the paper's empirical maximum-output-power quadratic
	// (Eq. 6): PmaxFit[0] + PmaxFit[1]*dT + PmaxFit[2]*dT^2.
	PmaxFit [3]float64
	// UnitCost is the purchase price per piece (Sec. III-A: $1).
	UnitCost units.USD
	// LifespanYears is the conservative service life used by the TCO
	// analysis (Sec. V-D assumes at least 25 years).
	LifespanYears float64
}

// SP1848 returns the calibrated SP 1848-27145 device used throughout the
// paper's prototype.
func SP1848() Device {
	return Device{
		Model:              "SP 1848-27145",
		SeebeckSlope:       0.0448,
		SeebeckOffset:      -0.0051,
		InternalResistance: 2.0,
		ThermalConductance: 0.5,
		PmaxFit:            [3]float64{0.0011, -0.0003, 0.0003},
		UnitCost:           1.0,
		LifespanYears:      25,
	}
}

// Validate reports whether the device parameters are physically meaningful.
func (d Device) Validate() error {
	if d.SeebeckSlope <= 0 {
		return errors.New("teg: SeebeckSlope must be positive")
	}
	if d.InternalResistance <= 0 {
		return errors.New("teg: InternalResistance must be positive")
	}
	if d.ThermalConductance < 0 {
		return errors.New("teg: ThermalConductance must be non-negative")
	}
	if d.LifespanYears <= 0 {
		return errors.New("teg: LifespanYears must be positive")
	}
	return nil
}

// OpenCircuitVoltage returns one TEG's open-circuit voltage v for the hot/cold
// temperature difference dT (Eq. 3). Negative dT yields a negative voltage
// (the Seebeck effect is symmetric); the tiny fitted offset is applied with
// the sign of dT so v(0) = 0 stays exact and v is odd.
func (d Device) OpenCircuitVoltage(dT units.Celsius) units.Volts {
	x := float64(dT)
	if x == 0 {
		return 0
	}
	mag := d.SeebeckSlope*math.Abs(x) + d.SeebeckOffset
	if mag < 0 {
		mag = 0 // the fit crosses zero slightly above dT=0
	}
	return units.Volts(math.Copysign(mag, x))
}

// MaxPowerPhysics returns the matched-load output power of one TEG derived
// from the Seebeck voltage and internal resistance (Eq. 5: (v/2)^2 / R).
func (d Device) MaxPowerPhysics(dT units.Celsius) units.Watts {
	v := float64(d.OpenCircuitVoltage(dT))
	return units.Watts(v * v / (4 * float64(d.InternalResistance)))
}

// MaxPowerEmpirical evaluates the paper's published quadratic fit of the
// measured maximum output power of one TEG (Eq. 6). The fit is clamped at
// zero for |dT| where it would go negative; it is even in dT because output
// power does not depend on the sign of the gradient.
func (d Device) MaxPowerEmpirical(dT units.Celsius) units.Watts {
	x := math.Abs(float64(dT))
	p := d.PmaxFit[0] + d.PmaxFit[1]*x + d.PmaxFit[2]*x*x
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

// HeatFlow returns the heat conducted through one TEG under temperature
// difference dT, in watts. This is what makes a TEG sandwiched between a CPU
// and its cold plate choke the heat path (Fig. 3).
func (d Device) HeatFlow(dT units.Celsius) units.Watts {
	return units.Watts(d.ThermalConductance * float64(dT))
}

// ConversionEfficiency returns electrical output over heat input at matched
// load, using the physics model. Bi2Te3 modules peak around 5 % (Sec. VI-D).
func (d Device) ConversionEfficiency(dT units.Celsius) float64 {
	if dT <= 0 || d.ThermalConductance == 0 {
		return 0
	}
	p := float64(d.MaxPowerPhysics(dT))
	q := float64(d.HeatFlow(dT)) + p // heat in = conducted + converted
	if q <= 0 {
		return 0
	}
	return p / q
}

// Module is a group of identical TEGs electrically connected in series and
// thermally in parallel: the collecting-in-series scheme of Sec. III-C used
// to raise the output voltage to a usable level. The H2P prototype attaches
// one 12-TEG module (two groups of six) at each CPU outlet.
type Module struct {
	Device Device
	N      int // number of TEGs in series, must be >= 1

	// FlowDerating optionally models the small Fig. 7 effect of coolant
	// flow rate on effective face temperature difference. Nil means no
	// derating (the 200 L/H reference condition).
	FlowDerating *FlowDerating
}

// NewModule builds a module of n series TEGs of the given device.
func NewModule(d Device, n int) (*Module, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("teg: module size %d, need >= 1", n)
	}
	return &Module{Device: d, N: n}, nil
}

// Resistance returns the module's series electrical resistance.
func (m *Module) Resistance() units.Ohms {
	return units.Ohms(float64(m.Device.InternalResistance) * float64(m.N))
}

// effectiveDeltaT applies the optional flow derating to the coolant
// temperature difference.
func (m *Module) effectiveDeltaT(dT units.Celsius, flow units.LitersPerHour) units.Celsius {
	if m.FlowDerating == nil {
		return dT
	}
	return units.Celsius(float64(dT) * m.FlowDerating.Factor(flow))
}

// OpenCircuitVoltage returns the series open-circuit voltage Voc_n = n*v
// (Eq. 4) at the given coolant temperature difference and flow rate.
func (m *Module) OpenCircuitVoltage(dT units.Celsius, flow units.LitersPerHour) units.Volts {
	eff := m.effectiveDeltaT(dT, flow)
	return units.Volts(float64(m.Device.OpenCircuitVoltage(eff)) * float64(m.N))
}

// MaxPower returns the module's maximum output power n * Pmax_1 (Eq. 7)
// using the paper's empirical per-device fit.
func (m *Module) MaxPower(dT units.Celsius, flow units.LitersPerHour) units.Watts {
	eff := m.effectiveDeltaT(dT, flow)
	return units.Watts(float64(m.Device.MaxPowerEmpirical(eff)) * float64(m.N))
}

// MaxPowerPhysics returns the matched-load power from the Seebeck physics
// model: Voc_n^2 / (4 n R) = n * (v/2)^2 / R.
func (m *Module) MaxPowerPhysics(dT units.Celsius, flow units.LitersPerHour) units.Watts {
	eff := m.effectiveDeltaT(dT, flow)
	return units.Watts(float64(m.Device.MaxPowerPhysics(eff)) * float64(m.N))
}

// PowerAtLoad returns the module output into an arbitrary load resistance,
// P = Voc^2 * R_load / (R_load + R_module)^2. Maximum output power occurs
// when the load resistance equals the whole module's resistance (Sec. III-C).
func (m *Module) PowerAtLoad(dT units.Celsius, flow units.LitersPerHour, load units.Ohms) (units.Watts, error) {
	if load < 0 {
		return 0, errors.New("teg: negative load resistance")
	}
	voc := float64(m.OpenCircuitVoltage(dT, flow))
	r := float64(m.Resistance())
	den := (float64(load) + r) * (float64(load) + r)
	if den == 0 {
		return 0, errors.New("teg: zero total resistance")
	}
	return units.Watts(voc * voc * float64(load) / den), nil
}

// Cost returns the module purchase price: N devices at the unit cost.
func (m *Module) Cost() units.USD {
	return units.USD(float64(m.Device.UnitCost) * float64(m.N))
}

// FlowDerating models the secondary effect of coolant flow rate on TEG output
// observed in Fig. 7: larger flow keeps the cold-plate faces closer to the
// coolant temperatures, slightly raising the effective temperature
// difference. The factor is normalized to 1 at the reference flow.
type FlowDerating struct {
	// Depth is the maximum fractional loss at zero flow (e.g. 0.08).
	Depth float64
	// Scale is the exponential recovery constant in L/H (e.g. 60).
	Scale float64
	// Reference is the flow at which the factor is exactly 1 (200 L/H,
	// where the paper's Eq. 3 fit was measured).
	Reference units.LitersPerHour
}

// DefaultFlowDerating returns the calibration used in the reproduction:
// a few-percent penalty at prototype flows, vanishing above ~150 L/H, which
// reproduces the "too little to be worth making" spread of Fig. 7.
func DefaultFlowDerating() *FlowDerating {
	return &FlowDerating{Depth: 0.08, Scale: 60, Reference: 200}
}

// Factor returns the multiplicative derating at the given flow.
func (fd *FlowDerating) Factor(flow units.LitersPerHour) float64 {
	raw := func(f float64) float64 {
		if f < 0 {
			f = 0
		}
		return 1 - fd.Depth*math.Exp(-f/fd.Scale)
	}
	return raw(float64(flow)) / raw(float64(fd.Reference))
}
