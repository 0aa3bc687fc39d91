package env

import (
	"errors"
	"fmt"
	"math"

	"github.com/h2p-sim/h2p/internal/units"
)

// Seasonal is a deterministic synthetic climate: annual and diurnal
// sinusoids around a base environment, plus seeded per-interval jitter
// standing in for weather. Interval 0 falls at midnight of StartDay; day 0
// is midwinter, so the annual phase puts the coldest water and the highest
// heating demand at the start of a January run.
//
// Every term is a pure function of the interval index and the construction
// parameters — the jitter comes from a splitmix64 hash of (Seed, i), the
// same stateless idiom the fault injector uses — so a Seasonal needs no
// state, carries nothing across intervals, and resumes exactly.
type Seasonal struct {
	// Base is the annual-mean environment the sinusoids swing around.
	// Base.HeatDemand is ignored: demand comes from DemandPeak below.
	Base Sample
	// AnnualCold and DiurnalCold are the cold-side swing amplitudes: the
	// natural water runs AnnualCold colder at midwinter than the mean and
	// DiurnalCold colder at midnight than the daily mean.
	AnnualCold, DiurnalCold units.Celsius
	// AnnualWetBulb and DiurnalWetBulb swing the ambient wet bulb.
	AnnualWetBulb, DiurnalWetBulb units.Celsius
	// Jitter is the half-width of the seeded uniform weather noise added
	// to both temperatures.
	Jitter units.Celsius
	// DemandPeak is the heat-reuse demand at midwinter, in [0, 1]. Demand
	// scales with how far into the cold half-year the interval falls and
	// is exactly zero through the warm half — the heating season the
	// paper's district-heating comparison turns on.
	DemandPeak float64
	// IntervalsPerDay converts interval indices to time of day (288 for
	// the paper's 5-minute intervals).
	IntervalsPerDay int
	// DaysPerYear closes the annual cycle (365).
	DaysPerYear int
	// StartDay is the day-of-year of interval 0 (0 = midwinter).
	StartDay float64
	// Seed selects the jitter stream.
	Seed uint64
}

// DefaultSeasonal returns a temperate-climate year at the paper's 5-minute
// cadence, swinging around the engine's default 20 °C cold side and 18 °C
// wet bulb.
func DefaultSeasonal(seed uint64) Seasonal {
	return Seasonal{
		Base:            Sample{WetBulb: 18, ColdSide: 20},
		AnnualCold:      6,
		DiurnalCold:     1.5,
		AnnualWetBulb:   7,
		DiurnalWetBulb:  2,
		Jitter:          0.5,
		DemandPeak:      0.6,
		IntervalsPerDay: 288,
		DaysPerYear:     365,
		Seed:            seed,
	}
}

// Validate reports parameter errors.
func (s Seasonal) Validate() error {
	if s.IntervalsPerDay <= 0 {
		return errors.New("env: IntervalsPerDay must be positive")
	}
	if s.DaysPerYear <= 0 {
		return errors.New("env: DaysPerYear must be positive")
	}
	for _, v := range []float64{
		float64(s.Base.WetBulb), float64(s.Base.ColdSide),
		float64(s.AnnualCold), float64(s.DiurnalCold),
		float64(s.AnnualWetBulb), float64(s.DiurnalWetBulb),
		float64(s.Jitter), s.StartDay,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("env: seasonal parameters must be finite")
		}
	}
	if s.Jitter < 0 {
		return errors.New("env: Jitter must be non-negative")
	}
	if s.DemandPeak < 0 || s.DemandPeak > 1 {
		return errors.New("env: DemandPeak outside [0,1]")
	}
	return nil
}

// coldQuantum snaps the synthesized temperatures to a 1/64 °C grid. It was
// chosen so near-identical conditions (tomorrow's 3 AM vs. today's) shared
// the entries of a cross-interval decision cache keyed on the cold-side
// bits; that cache is gone, but the grid shapes every seasonal result, so
// it stays.
const coldQuantum = 64.0

func quantizeTemp(c float64) units.Celsius {
	return units.Celsius(math.Round(c*coldQuantum) / coldQuantum)
}

// mix is the splitmix64 finalizer — the same stateless hash the fault
// injector draws activation from, so jitter is a pure function of
// (Seed, interval) with no RNG state to checkpoint.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitterAt returns the interval's weather noise in (-Jitter, +Jitter).
func (s Seasonal) jitterAt(i int) float64 {
	h := mix(s.Seed ^ mix(uint64(i)))
	u := float64(h>>11) / float64(1<<53)
	return (2*u - 1) * float64(s.Jitter)
}

// At synthesizes the environment for interval i.
func (s Seasonal) At(i int) Sample {
	ipd := float64(s.IntervalsPerDay)
	day := s.StartDay + float64(i)/ipd
	// annual is -1 at midwinter (day 0), +1 at midsummer.
	annual := -math.Cos(2 * math.Pi * day / float64(s.DaysPerYear))
	// diurnal is -1 at midnight, +1 at midday.
	frac := float64(i%s.IntervalsPerDay) / ipd
	diurnal := -math.Cos(2 * math.Pi * frac)
	jit := s.jitterAt(i)

	cold := float64(s.Base.ColdSide) + float64(s.AnnualCold)*annual + float64(s.DiurnalCold)*diurnal + jit
	wet := float64(s.Base.WetBulb) + float64(s.AnnualWetBulb)*annual + float64(s.DiurnalWetBulb)*diurnal + jit

	// Heating-season demand: proportional to how deep into the cold
	// half-year the interval falls, exactly zero through the warm half.
	demand := 0.0
	if annual < 0 {
		demand = s.DemandPeak * -annual
	}
	return Sample{
		WetBulb:    quantizeTemp(wet),
		ColdSide:   quantizeTemp(cold),
		HeatDemand: demand,
	}
}

// Name reports the source kind.
func (s Seasonal) Name() string { return "seasonal" }

// Fingerprint covers every parameter At reads.
func (s Seasonal) Fingerprint() string {
	return fmt.Sprintf("seasonal:v1:base=%g/%g,annual=%g/%g,diurnal=%g/%g,jitter=%g,demand=%g,ipd=%d,dpy=%d,start=%g,seed=%d",
		float64(s.Base.WetBulb), float64(s.Base.ColdSide),
		float64(s.AnnualWetBulb), float64(s.AnnualCold),
		float64(s.DiurnalWetBulb), float64(s.DiurnalCold),
		float64(s.Jitter), s.DemandPeak,
		s.IntervalsPerDay, s.DaysPerYear, s.StartDay, s.Seed)
}
