// Package storage models the electricity storage layer of Sec. VI-B: TEG
// output fluctuates with the temperature difference (high at night when
// inlet water can run warm, low at midday peaks), so a buffer must sit
// between the TEG modules and their loads. The paper points to hybrid energy
// buffers — batteries for capacity plus super-capacitors (SCs) for high
// round-trip efficiency (90-95 %) and fast cycling — following HEB
// (Liu et al., ISCA'15).
package storage

import (
	"errors"
	"math"

	"github.com/h2p-sim/h2p/internal/units"
)

// Element is a storage element with capacity, rate limits and a round-trip
// efficiency applied on charge (a common single-sided loss model).
type Element struct {
	// Name identifies the element in reports.
	Name string
	// CapacityWh is the usable energy capacity in watt-hours.
	CapacityWh float64
	// MaxChargeW and MaxDischargeW bound instantaneous power.
	MaxChargeW, MaxDischargeW float64
	// Efficiency is the round-trip efficiency in (0, 1], applied to
	// energy entering the element.
	Efficiency float64

	storedWh float64
}

// NewElement validates and returns a storage element, initially empty.
func NewElement(name string, capacityWh, maxChargeW, maxDischargeW, efficiency float64) (*Element, error) {
	if capacityWh <= 0 {
		return nil, errors.New("storage: capacity must be positive")
	}
	if maxChargeW <= 0 || maxDischargeW <= 0 {
		return nil, errors.New("storage: rate limits must be positive")
	}
	if efficiency <= 0 || efficiency > 1 {
		return nil, errors.New("storage: efficiency must be in (0, 1]")
	}
	return &Element{
		Name:       name,
		CapacityWh: capacityWh,
		MaxChargeW: maxChargeW, MaxDischargeW: maxDischargeW,
		Efficiency: efficiency,
	}, nil
}

// ServerBattery returns a small per-server lead-acid-class battery: larger
// capacity, modest (~80 %) round-trip efficiency.
func ServerBattery() *Element {
	e, _ := NewElement("battery", 20, 5, 5, 0.80)
	return e
}

// ServerSuperCap returns a per-server super-capacitor bank: small capacity,
// 93 % efficiency, fast cycling.
func ServerSuperCap() *Element {
	e, _ := NewElement("supercap", 1.5, 50, 50, 0.93)
	return e
}

// StoredWh returns the element's current stored energy.
func (e *Element) StoredWh() float64 { return e.storedWh }

// Charge absorbs up to p watts for dt hours and returns the power actually
// accepted (before efficiency loss). p must be non-negative.
func (e *Element) Charge(p units.Watts, dtHours float64) units.Watts {
	if p <= 0 || dtHours <= 0 {
		return 0
	}
	accept := math.Min(float64(p), e.MaxChargeW)
	room := e.CapacityWh - e.storedWh
	// Energy stored after efficiency; limit acceptance so we never
	// overfill.
	maxAcceptByRoom := room / (e.Efficiency * dtHours)
	accept = math.Min(accept, maxAcceptByRoom)
	if accept <= 0 {
		return 0
	}
	e.storedWh += accept * e.Efficiency * dtHours
	return units.Watts(accept)
}

// Discharge supplies up to p watts for dt hours and returns the power
// actually delivered. p must be non-negative.
func (e *Element) Discharge(p units.Watts, dtHours float64) units.Watts {
	if p <= 0 || dtHours <= 0 {
		return 0
	}
	deliver := math.Min(float64(p), e.MaxDischargeW)
	deliver = math.Min(deliver, e.storedWh/dtHours)
	if deliver <= 0 {
		return 0
	}
	e.storedWh -= deliver * dtHours
	return units.Watts(deliver)
}

// HybridBuffer pairs a super-capacitor with a battery under the HEB policy:
// the SC, being the more efficient and faster element, is charged and
// discharged first; the battery takes what the SC cannot.
type HybridBuffer struct {
	SC, Battery *Element
}

// NewServerBuffer returns the per-server hybrid buffer used by the
// reproduction's storage experiments.
func NewServerBuffer() *HybridBuffer {
	return &HybridBuffer{SC: ServerSuperCap(), Battery: ServerBattery()}
}

// StepResult accounts one buffer step.
type StepResult struct {
	// Direct is generation delivered straight to the load.
	Direct units.Watts
	// Stored is surplus generation accepted by the buffer.
	Stored units.Watts
	// Spilled is surplus the full/rate-limited buffer had to waste.
	Spilled units.Watts
	// FromBuffer is deficit covered by discharge.
	FromBuffer units.Watts
	// Unmet is load demand nobody could cover.
	Unmet units.Watts
}

// Step advances the buffer one interval: generation watts arrive, demand
// watts are requested, for dt hours.
func (b *HybridBuffer) Step(generation, demand units.Watts, dtHours float64) (StepResult, error) {
	if b.SC == nil || b.Battery == nil {
		return StepResult{}, errors.New("storage: buffer elements not configured")
	}
	if generation < 0 || demand < 0 || dtHours <= 0 {
		return StepResult{}, errors.New("storage: negative step inputs")
	}
	var r StepResult
	r.Direct = units.Watts(math.Min(float64(generation), float64(demand)))
	surplus := generation - r.Direct
	deficit := demand - r.Direct
	if surplus > 0 {
		acc := b.SC.Charge(surplus, dtHours)
		acc += b.Battery.Charge(surplus-acc, dtHours)
		r.Stored = acc
		r.Spilled = surplus - acc
	}
	if deficit > 0 {
		got := b.SC.Discharge(deficit, dtHours)
		got += b.Battery.Discharge(deficit-got, dtHours)
		r.FromBuffer = got
		r.Unmet = deficit - got
	}
	return r, nil
}

// StoredWh returns the total energy held by the buffer.
func (b *HybridBuffer) StoredWh() float64 {
	return b.SC.StoredWh() + b.Battery.StoredWh()
}

// SmoothingReport summarizes a whole-series smoothing run.
type SmoothingReport struct {
	Steps          int
	DeliveredWh    float64 // energy that reached the load
	GeneratedWh    float64
	SpilledWh      float64
	UnmetWh        float64
	CoverageRatio  float64 // delivered / demanded
	UnmetIntervals int
}

// Smooth runs a generation series (watts per interval) against a constant
// demand and reports how well the buffer bridges the mismatch — e.g. TEG
// output powering a fixed LED lighting load (Sec. VI-C2).
func (b *HybridBuffer) Smooth(generation []units.Watts, demand units.Watts, dtHours float64) (SmoothingReport, error) {
	if len(generation) == 0 {
		return SmoothingReport{}, errors.New("storage: empty generation series")
	}
	if demand < 0 || dtHours <= 0 {
		return SmoothingReport{}, errors.New("storage: bad demand or step")
	}
	var rep SmoothingReport
	for _, g := range generation {
		r, err := b.Step(g, demand, dtHours)
		if err != nil {
			return SmoothingReport{}, err
		}
		rep.Steps++
		rep.GeneratedWh += float64(g) * dtHours
		rep.DeliveredWh += float64(r.Direct+r.FromBuffer) * dtHours
		rep.SpilledWh += float64(r.Spilled) * dtHours
		rep.UnmetWh += float64(r.Unmet) * dtHours
		if r.Unmet > 1e-12 {
			rep.UnmetIntervals++
		}
	}
	demandedWh := float64(demand) * dtHours * float64(rep.Steps)
	if demandedWh > 0 {
		rep.CoverageRatio = rep.DeliveredWh / demandedWh
	}
	return rep, nil
}
