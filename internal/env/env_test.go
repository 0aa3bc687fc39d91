package env

import (
	"math"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/units"
)

// Len returns the number of explicit samples.
func (p *Profile) Len() int { return len(p.samples) }

func TestConstantEveryIntervalIdentical(t *testing.T) {
	c := NewConstant(18, 20)
	want := Sample{WetBulb: 18, ColdSide: 20}
	for _, i := range []int{0, 1, 17, 100000} {
		if got := c.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

func TestConstantFingerprintValueBased(t *testing.T) {
	a := NewConstant(18, 20)
	b := Constant{Sample: Sample{WetBulb: 18, ColdSide: 20}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal-valued constants fingerprint differently: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	c := NewConstant(18, 22)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("different cold sides share fingerprint %q", a.Fingerprint())
	}
}

// TestSeasonalDeterministic pins the satellite property: a seasonal source
// is a pure function of (parameters, seed) — two instances with the same
// seed agree bit-for-bit at every interval, and a different seed diverges.
func TestSeasonalDeterministic(t *testing.T) {
	a := DefaultSeasonal(7)
	b := DefaultSeasonal(7)
	other := DefaultSeasonal(8)
	diverged := false
	for i := 0; i < 5000; i++ {
		sa, sb := a.At(i), b.At(i)
		if sa != sb {
			t.Fatalf("same seed diverged at interval %d: %+v vs %+v", i, sa, sb)
		}
		if sa != other.At(i) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical years")
	}
}

func TestSeasonalShape(t *testing.T) {
	s := DefaultSeasonal(1)
	s.Jitter = 0 // inspect the pure sinusoids

	// Midwinter (interval 0) must be colder than midsummer.
	winter := s.At(0)
	summerStart := (s.DaysPerYear / 2) * s.IntervalsPerDay
	summer := s.At(summerStart)
	if winter.ColdSide >= summer.ColdSide {
		t.Fatalf("midwinter cold side %v not below midsummer %v", winter.ColdSide, summer.ColdSide)
	}
	if winter.WetBulb >= summer.WetBulb {
		t.Fatalf("midwinter wet bulb %v not below midsummer %v", winter.WetBulb, summer.WetBulb)
	}

	// Heating season: full demand at midwinter, zero through the warm half.
	if winter.HeatDemand <= 0 {
		t.Fatalf("midwinter heat demand %v, want positive", winter.HeatDemand)
	}
	if summer.HeatDemand != 0 {
		t.Fatalf("midsummer heat demand %v, want exactly 0", summer.HeatDemand)
	}
	// A quarter-year from midwinter (equinox) the annual term crosses zero.
	equinox := s.At((s.DaysPerYear/4)*s.IntervalsPerDay + s.IntervalsPerDay/2)
	if equinox.HeatDemand >= winter.HeatDemand {
		t.Fatalf("equinox demand %v not below midwinter %v", equinox.HeatDemand, winter.HeatDemand)
	}

	// Diurnal swing: midday warmer than midnight on the same day.
	midnight := s.At(10 * s.IntervalsPerDay)
	midday := s.At(10*s.IntervalsPerDay + s.IntervalsPerDay/2)
	if midday.ColdSide <= midnight.ColdSide {
		t.Fatalf("midday cold side %v not above midnight %v", midday.ColdSide, midnight.ColdSide)
	}
}

func TestSeasonalQuantized(t *testing.T) {
	s := DefaultSeasonal(3)
	for i := 0; i < 1000; i++ {
		smp := s.At(i)
		for _, v := range []float64{float64(smp.ColdSide), float64(smp.WetBulb)} {
			if q := v * coldQuantum; q != math.Round(q) {
				t.Fatalf("interval %d: temperature %v not on the 1/%v °C grid", i, v, coldQuantum)
			}
		}
		if smp.HeatDemand < 0 || smp.HeatDemand > 1 {
			t.Fatalf("interval %d: demand %v outside [0,1]", i, smp.HeatDemand)
		}
	}
}

func TestSeasonalValidate(t *testing.T) {
	ok := DefaultSeasonal(0)
	if err := ok.Validate(); err != nil {
		t.Fatalf("default seasonal invalid: %v", err)
	}
	bad := ok
	bad.IntervalsPerDay = 0
	if bad.Validate() == nil {
		t.Fatal("zero IntervalsPerDay accepted")
	}
	bad = ok
	bad.DemandPeak = 1.5
	if bad.Validate() == nil {
		t.Fatal("DemandPeak > 1 accepted")
	}
	bad = ok
	bad.AnnualCold = units.Celsius(math.Inf(1))
	if bad.Validate() == nil {
		t.Fatal("infinite amplitude accepted")
	}
}

func TestProfileParseAndIndex(t *testing.T) {
	data := []byte(`{
		"name": "test",
		"repeat": true,
		"samples": [
			{"wet_bulb_c": 5, "cold_side_c": 8, "heat_demand": 0.9},
			{"wet_bulb_c": 15, "cold_side_c": 18},
			{"wet_bulb_c": 25, "cold_side_c": 28, "heat_demand": 0.1}
		]
	}`)
	p, err := ParseProfile(data)
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if got := p.At(1); got.HeatDemand != 0 || got.ColdSide != 18 {
		t.Fatalf("At(1) = %+v", got)
	}
	// Repeat wraps.
	if p.At(4) != p.At(1) {
		t.Fatalf("repeat profile did not wrap: At(4)=%+v At(1)=%+v", p.At(4), p.At(1))
	}

	// Without repeat, the last sample holds.
	hold, err := ParseProfile([]byte(`{"samples":[{"wet_bulb_c":5,"cold_side_c":8},{"wet_bulb_c":6,"cold_side_c":9}]}`))
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if hold.At(10) != hold.At(1) {
		t.Fatalf("non-repeat profile did not hold last sample")
	}
}

func TestProfileRejects(t *testing.T) {
	cases := map[string]string{
		"empty samples":  `{"samples":[]}`,
		"unknown field":  `{"samples":[{"wet_bulb_c":5,"cold_side_c":8}],"bogus":1}`,
		"trailing data":  `{"samples":[{"wet_bulb_c":5,"cold_side_c":8}]} {}`,
		"non-finite":     `{"samples":[{"wet_bulb_c":1e999,"cold_side_c":8}]}`,
		"temp too low":   `{"samples":[{"wet_bulb_c":-100,"cold_side_c":8}]}`,
		"demand above 1": `{"samples":[{"wet_bulb_c":5,"cold_side_c":8,"heat_demand":2}]}`,
		"not json":       `hello`,
	}
	for name, data := range cases {
		if _, err := ParseProfile([]byte(data)); err == nil {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

func TestProfileFingerprintContentBased(t *testing.T) {
	a, err := ParseProfile([]byte(`{"samples":[{"wet_bulb_c":5,"cold_side_c":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Same content, different whitespace.
	b, err := ParseProfile([]byte(`{ "samples": [ {"cold_side_c": 8, "wet_bulb_c": 5} ] }`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical content fingerprints differ: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	c, err := ParseProfile([]byte(`{"samples":[{"wet_bulb_c":5,"cold_side_c":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different content shares a fingerprint")
	}
}

func TestFingerprintsDistinguishKinds(t *testing.T) {
	fps := []string{
		NewConstant(18, 20).Fingerprint(),
		DefaultSeasonal(1).Fingerprint(),
	}
	for i, fp := range fps {
		for j := i + 1; j < len(fps); j++ {
			if fp == fps[j] {
				t.Fatalf("fingerprints %d and %d collide: %q", i, j, fp)
			}
		}
		if strings.TrimSpace(fp) == "" {
			t.Fatalf("fingerprint %d empty", i)
		}
	}
}
