// Package units defines the physical quantities, conversions and material
// constants used throughout the H2P simulator.
//
// All temperatures are carried in degrees Celsius (type Celsius), all powers
// in watts (type Watts) and all volumetric coolant flows in litres per hour
// (type LitersPerHour), matching the units the paper reports. Conversion
// helpers to SI (kelvin, kg/s) are provided where the physics needs them.
package units

import (
	"fmt"
	"math"
)

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// Kelvin is an absolute temperature in kelvin.
type Kelvin float64

// Watts is a power in watts.
type Watts float64

// Joules is an energy in joules.
type Joules float64

// KilowattHours is an energy in kilowatt-hours, the billing unit used by the
// paper's TCO analysis.
type KilowattHours float64

// LitersPerHour is a volumetric flow rate in litres per hour, the unit used
// by the prototype's flow meters.
type LitersPerHour float64

// KgPerSecond is a mass flow rate in kilograms per second.
type KgPerSecond float64

// Volts is an electric potential in volts.
type Volts float64

// Ohms is an electrical resistance in ohms.
type Ohms float64

// USD is an amount of money in US dollars.
type USD float64

// Water and environment constants used by the paper.
const (
	// WaterSpecificHeat is c_w = 4.2e3 J/(kg·°C): the heat that must be
	// added to (or removed from) one kilogram of water to change its
	// temperature by one degree Celsius (Sec. V-A).
	WaterSpecificHeat = 4.2e3 // J/(kg·°C)

	// WaterDensity is rho = 1000 kg/m^3 (1 kg per litre).
	WaterDensity = 1000.0 // kg/m^3

	// ZeroCelsiusInKelvin converts between the Celsius and Kelvin scales.
	ZeroCelsiusInKelvin = 273.15
)

// Kelvin converts a Celsius temperature to kelvin.
func (c Celsius) Kelvin() Kelvin { return Kelvin(float64(c) + ZeroCelsiusInKelvin) }

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.2f°C", float64(c)) }

// String implements fmt.Stringer.
func (w Watts) String() string { return fmt.Sprintf("%.3fW", float64(w)) }

// String implements fmt.Stringer.
func (f LitersPerHour) String() string { return fmt.Sprintf("%.1fL/H", float64(f)) }

// String implements fmt.Stringer.
func (u USD) String() string { return fmt.Sprintf("$%.2f", float64(u)) }

// MassFlow converts a volumetric water flow to the equivalent mass flow,
// assuming the density of water.
func (f LitersPerHour) MassFlow() KgPerSecond {
	// 1 L of water = 1 kg; 1 hour = 3600 s.
	return KgPerSecond(float64(f) / 3600.0)
}

// HeatCapacityRate returns the product m_dot*c_w in W/°C for a water stream:
// the power needed to raise the stream temperature by one degree Celsius.
func (f LitersPerHour) HeatCapacityRate() float64 {
	return float64(f.MassFlow()) * WaterSpecificHeat
}

// AdvectionDeltaT returns the steady-state temperature rise of a water stream
// with flow f that absorbs power p: deltaT = p / (m_dot * c_w).
// It returns +Inf for a zero flow carrying positive power.
func AdvectionDeltaT(p Watts, f LitersPerHour) Celsius {
	rate := f.HeatCapacityRate()
	if rate == 0 {
		if p == 0 {
			return 0
		}
		return Celsius(math.Inf(sign(float64(p))))
	}
	return Celsius(float64(p) / rate)
}

// AdvectedPower is the inverse of AdvectionDeltaT: the power a water stream
// with flow f absorbs while warming by dT.
func AdvectedPower(dT Celsius, f LitersPerHour) Watts {
	return Watts(float64(dT) * f.HeatCapacityRate())
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// Joules converts an energy in joules to kilowatt-hours.
func (j Joules) KilowattHours() KilowattHours { return KilowattHours(float64(j) / 3.6e6) }

// EnergyOver returns the energy, in joules, of a constant power draw p held
// for the given number of seconds.
func EnergyOver(p Watts, seconds float64) Joules { return Joules(float64(p) * seconds) }

// Clamp bounds x to the inclusive interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
