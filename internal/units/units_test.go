package units

import (
	"math"
	"testing"
	"testing/quick"
)

// Celsius converts back from Kelvin, for the round-trip checks.
func (k Kelvin) Celsius() Celsius { return Celsius(float64(k) - ZeroCelsiusInKelvin) }

// LitersPerHour converts a mass flow of water back to a volumetric flow,
// for the round-trip checks.
func (m KgPerSecond) LitersPerHour() LitersPerHour {
	return LitersPerHour(float64(m) * 3600.0)
}

func TestCelsiusKelvinRoundTrip(t *testing.T) {
	cases := []Celsius{-60, 0, 20, 78.9, 120}
	for _, c := range cases {
		if got := c.Kelvin().Celsius(); math.Abs(float64(got-c)) > 1e-12 {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	if k := Celsius(0).Kelvin(); k != 273.15 {
		t.Errorf("0°C = %v K, want 273.15", k)
	}
}

func TestCelsiusKelvinRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		c := Celsius(x)
		back := c.Kelvin().Celsius()
		return math.Abs(float64(back-c)) <= 1e-9*math.Max(1, math.Abs(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMassFlow(t *testing.T) {
	// 20 L/H of water is 20 kg over 3600 s.
	got := LitersPerHour(20).MassFlow()
	want := KgPerSecond(20.0 / 3600.0)
	if math.Abs(float64(got-want)) > 1e-15 {
		t.Errorf("MassFlow(20 L/H) = %v, want %v", got, want)
	}
	if back := got.LitersPerHour(); math.Abs(float64(back-20)) > 1e-12 {
		t.Errorf("round trip = %v, want 20", back)
	}
}

func TestAdvectionDeltaTMatchesPaperRange(t *testing.T) {
	// The paper observes deltaT_out-in within 1..3.5°C at the prototype
	// flow of 20 L/H (Fig. 9). The CPU power model spans ~9.4..77.2 W;
	// check the physics lands in the published band.
	lo := AdvectionDeltaT(23, 20) // ~idle+margin power
	hi := AdvectionDeltaT(77.2, 20)
	if lo < 0.9 || lo > 1.1 {
		t.Errorf("low-power deltaT = %v, want ~1°C", lo)
	}
	if hi < 3.2 || hi > 3.5 {
		t.Errorf("full-power deltaT = %v, want ~3.3°C", hi)
	}
}

func TestAdvectionZeroFlow(t *testing.T) {
	if dt := AdvectionDeltaT(0, 0); dt != 0 {
		t.Errorf("0 W into 0 flow should be 0, got %v", dt)
	}
	if dt := AdvectionDeltaT(10, 0); !math.IsInf(float64(dt), 1) {
		t.Errorf("positive power into zero flow should be +Inf, got %v", dt)
	}
	if dt := AdvectionDeltaT(-10, 0); !math.IsInf(float64(dt), -1) {
		t.Errorf("negative power into zero flow should be -Inf, got %v", dt)
	}
}

func TestAdvectionInverseProperty(t *testing.T) {
	f := func(p float64, flow uint8) bool {
		if math.IsNaN(p) || math.IsInf(p, 0) || math.Abs(p) > 1e6 {
			return true
		}
		fl := LitersPerHour(float64(flow) + 1) // avoid zero flow
		dt := AdvectionDeltaT(Watts(p), fl)
		back := AdvectedPower(dt, fl)
		return math.Abs(float64(back)-p) <= 1e-6*math.Max(1, math.Abs(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyConversions(t *testing.T) {
	// 1 kWh = 3.6e6 J.
	if k := Joules(3.6e6).KilowattHours(); k != 1 {
		t.Errorf("3.6e6 J = %v kWh, want 1", k)
	}
	// 4.177 W for 24 h on 100k servers is the paper's 10,024.8 kWh/day.
	perServer := EnergyOver(4.177, 24*3600).KilowattHours()
	total := float64(perServer) * 100000
	if math.Abs(total-10024.8) > 0.5 {
		t.Errorf("daily fleet energy = %.1f kWh, want ~10024.8", total)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range tests {
		if got := Clamp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if s := Celsius(20).String(); s != "20.00°C" {
		t.Errorf("Celsius string = %q", s)
	}
	if s := Watts(4.177).String(); s != "4.177W" {
		t.Errorf("Watts string = %q", s)
	}
	if s := LitersPerHour(200).String(); s != "200.0L/H" {
		t.Errorf("flow string = %q", s)
	}
	if s := USD(1303.2).String(); s != "$1303.20" {
		t.Errorf("USD string = %q", s)
	}
}

func TestHeatCapacityRate(t *testing.T) {
	// 200 L/H: (200/3600) kg/s * 4200 J/(kg·°C) = 233.33 W/°C.
	got := LitersPerHour(200).HeatCapacityRate()
	if math.Abs(got-233.3333) > 1e-3 {
		t.Errorf("HeatCapacityRate(200) = %v, want ~233.33", got)
	}
}
