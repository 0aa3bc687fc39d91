package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/h2p-sim/h2p/internal/units"
)

func TestSpecValidates(t *testing.T) {
	if err := XeonE52650V3().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidationRejectsBadFields(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.MaxOperatingTemp = 0 },
		func(s *Spec) { s.SafeTemp = 0 },
		func(s *Spec) { s.SafeTemp = s.MaxOperatingTemp },
		func(s *Spec) { s.PowerLogShift = 0 },
		func(s *Spec) { s.CouplingAtRef = 0.9 },
		func(s *Spec) { s.CouplingRefFlow = 0 },
		func(s *Spec) { s.RthConduction = -1 },
		func(s *Spec) { s.ThermalCapacitance = 0 },
	}
	for i, mut := range cases {
		s := XeonE52650V3()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPowerMatchesEq20(t *testing.T) {
	s := XeonE52650V3()
	// Eq. 20 anchor points with u in [0,1].
	if p := float64(s.Power(0)); math.Abs(p-(109.71*math.Log(1.17)-7.83)) > 1e-9 {
		t.Errorf("idle power = %v", p)
	}
	if p := float64(s.Power(1)); math.Abs(p-(109.71*math.Log(2.17)-7.83)) > 1e-9 {
		t.Errorf("full power = %v", p)
	}
	// Published implication: ~9.4 W idle, ~77.2 W full.
	if p := float64(s.Power(0)); p < 9 || p > 10 {
		t.Errorf("idle power = %v, want ~9.4", p)
	}
	if p := float64(s.Power(1)); p < 76.5 || p > 78 {
		t.Errorf("full power = %v, want ~77.2", p)
	}
	// Clamping.
	if s.Power(-0.5) != s.Power(0) || s.Power(2) != s.Power(1) {
		t.Error("utilization should clamp to [0,1]")
	}
}

// utilizationForPower inverts Eq. 20, clamping to [0, 1]: the referee the
// inversion property holds Power to.
func utilizationForPower(s Spec, p units.Watts) float64 {
	u := math.Exp((float64(p)-s.PowerOffset)/s.PowerLogCoeff) - s.PowerLogShift
	return units.Clamp(u, 0, 1)
}

// inletForTemperature inverts the temperature map: the inlet water
// temperature that holds the die exactly at target for the given
// utilization and flow. The scheduler picks its inlet from the look-up
// space's grid; the tests check the map's safety structure against this
// closed form.
func inletForTemperature(s Spec, target units.Celsius, u float64, f units.LitersPerHour) units.Celsius {
	return units.Celsius((float64(target) - s.ThermalResistance(f)*float64(s.Power(u))) / s.Coupling(f))
}

func TestPowerInversionProperty(t *testing.T) {
	s := XeonE52650V3()
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		u := math.Abs(x) - math.Floor(math.Abs(x))
		back := utilizationForPower(s, s.Power(u))
		return math.Abs(back-u) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerConcaveIncreasing(t *testing.T) {
	// Eq. 20 is increasing and concave; the load-balancing analysis relies
	// on this (Jensen direction of PRE).
	s := XeonE52650V3()
	var prev, prevSlope float64 = -1, math.Inf(1)
	for u := 0.0; u <= 1.0; u += 0.05 {
		p := float64(s.Power(u))
		if p <= prev {
			t.Fatalf("power not increasing at u=%v", u)
		}
		if u > 0 {
			slope := (p - prev) / 0.05
			if slope > prevSlope+1e-9 {
				t.Fatalf("power not concave at u=%v", u)
			}
			prevSlope = slope
		}
		prev = p
	}
}

func TestFrequencyGovernorShape(t *testing.T) {
	s := XeonE52650V3()
	// Fig. 10: settles at ~2.5 GHz above 50 % utilization.
	if f := s.Frequency(0.5); math.Abs(f-2.5) > 1e-9 {
		t.Errorf("freq(0.5) = %v, want 2.5", f)
	}
	if f := s.Frequency(1.0); math.Abs(f-2.5) > 1e-9 {
		t.Errorf("freq(1.0) = %v, want 2.5", f)
	}
	if f := s.Frequency(0); math.Abs(f-1.2) > 1e-9 {
		t.Errorf("freq(0) = %v, want base 1.2", f)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for u := 0.0; u <= 1.0; u += 0.01 {
		f := s.Frequency(u)
		if f < prev-1e-12 {
			t.Fatalf("frequency decreasing at u=%v", u)
		}
		prev = f
	}
}

func TestCouplingWithinPaperRange(t *testing.T) {
	s := XeonE52650V3()
	// k in [1, 1.3] (Sec. V-A), equal to 1.3 at the 20 L/H prototype flow,
	// decreasing with flow.
	if k := s.Coupling(20); math.Abs(k-1.3) > 1e-12 {
		t.Errorf("k(20) = %v, want 1.3", k)
	}
	prev := 2.0
	for _, f := range []units.LitersPerHour{20, 50, 100, 150, 250, 500} {
		k := s.Coupling(f)
		if k < 1 || k > 1.3 {
			t.Errorf("k(%v) = %v outside [1, 1.3]", f, k)
		}
		if k > prev {
			t.Errorf("k not decreasing at %v", f)
		}
		prev = k
	}
	if k := s.Coupling(5); k != 1.3 {
		t.Errorf("k below reference flow = %v, want clamp at 1.3", k)
	}
}

func TestThermalResistanceSaturates(t *testing.T) {
	s := XeonE52650V3()
	// Decreasing with flow, saturating: the drop from 250 to 500 L/H must
	// be far smaller than from 20 to 50 L/H (Fig. 11 "little effect"
	// above 250 L/H).
	drop1 := s.ThermalResistance(20) - s.ThermalResistance(50)
	drop2 := s.ThermalResistance(250) - s.ThermalResistance(500)
	if drop2 >= drop1/10 {
		t.Errorf("no saturation: drop(20->50)=%v drop(250->500)=%v", drop1, drop2)
	}
	if r := s.ThermalResistance(0); math.IsInf(r, 0) || r != s.ThermalResistance(1) {
		t.Errorf("zero flow should clamp to the 1 L/H value, got %v", r)
	}
}

func TestPaperSafetyAnchors(t *testing.T) {
	s := XeonE52650V3()
	const f = 20 // prototype flow, L/H
	// 40-45 °C water never exceeds 78.9 °C, even at 100 % utilization.
	for _, tin := range []units.Celsius{40, 42, 45} {
		if got := s.Temperature(1.0, f, tin); got > s.MaxOperatingTemp {
			t.Errorf("tin=%v should be safe at 100%%: die at %v", tin, got)
		}
	}
	// Above 50 °C water with utilization above 70 % exceeds the limit.
	if got := s.Temperature(0.72, f, 50.5); got <= s.MaxOperatingTemp {
		t.Errorf("50.5°C water at 72%% utilization should exceed the limit: die at %v", got)
	}
	if got := s.Temperature(1.0, f, 51); got <= s.MaxOperatingTemp {
		t.Errorf("51°C water at 100%% utilization should exceed the limit: die at %v", got)
	}
}

func TestTemperatureLinearInInlet(t *testing.T) {
	// Fig. 11: at each flow rate, T_CPU grows linearly with coolant
	// temperature.
	s := XeonE52650V3()
	for _, f := range []units.LitersPerHour{20, 100, 250} {
		t1 := s.Temperature(1, f, 30)
		t2 := s.Temperature(1, f, 40)
		t3 := s.Temperature(1, f, 50)
		if math.Abs(float64((t3-t2)-(t2-t1))) > 1e-9 {
			t.Errorf("nonlinear in inlet at f=%v", f)
		}
		// Slope equals k(f).
		slope := float64(t2-t1) / 10
		if math.Abs(slope-s.Coupling(f)) > 1e-9 {
			t.Errorf("slope %v != k(%v) = %v", slope, f, s.Coupling(f))
		}
	}
}

func TestTemperatureDecreasesWithFlow(t *testing.T) {
	s := XeonE52650V3()
	prev := units.Celsius(math.Inf(1))
	for _, f := range []units.LitersPerHour{20, 50, 100, 150, 250} {
		tc := s.Temperature(1, f, 45)
		if tc >= prev {
			t.Errorf("T_CPU not decreasing with flow at %v", f)
		}
		prev = tc
	}
}

func TestOutletDeltaTMatchesFig9(t *testing.T) {
	s := XeonE52650V3()
	// At the prototype flow of 20 L/H the rise spans roughly 1..3.5 °C
	// over the utilization range (Fig. 9).
	lo := float64(s.OutletDeltaT(0, 20))
	hi := float64(s.OutletDeltaT(1, 20))
	if lo < 0.3 || lo > 1.2 {
		t.Errorf("idle deltaT = %v, want ~0.4-1", lo)
	}
	if hi < 3.0 || hi > 3.6 {
		t.Errorf("full deltaT = %v, want ~3.3", hi)
	}
	// Mainly affected by utilization; higher flow shrinks it.
	if d := s.OutletDeltaT(1, 250); d >= s.OutletDeltaT(1, 20) {
		t.Errorf("deltaT should shrink with flow: %v", d)
	}
	// Inlet temperature has no effect (Fig. 9b): OutletDeltaT takes none.
}

func TestInletForTemperatureInverts(t *testing.T) {
	s := XeonE52650V3()
	f := func(uRaw, fRaw float64) bool {
		if math.IsNaN(uRaw) || math.IsNaN(fRaw) || math.IsInf(uRaw, 0) || math.IsInf(fRaw, 0) {
			return true
		}
		u := math.Abs(uRaw) - math.Floor(math.Abs(uRaw))
		fl := units.LitersPerHour(20 + math.Mod(math.Abs(fRaw), 230))
		tin := inletForTemperature(s, s.SafeTemp, u, fl)
		back := s.Temperature(u, fl, tin)
		return math.Abs(float64(back-s.SafeTemp)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHighFlowUnlocksWarmerInlet(t *testing.T) {
	// The optimizer insight: at equal utilization and die target, higher
	// flow admits a warmer inlet, hence a hotter outlet for the TEGs.
	s := XeonE52650V3()
	low := inletForTemperature(s, 62, 0.25, 20)
	high := inletForTemperature(s, 62, 0.25, 250)
	if high <= low {
		t.Errorf("inlet at 250 L/H (%v) should exceed inlet at 20 L/H (%v)", high, low)
	}
	if high < 50 || high > 58 {
		t.Errorf("high-flow inlet = %v, expected ~55 for the paper's operating point", high)
	}
}

func TestSafe(t *testing.T) {
	// The vendor limit is 78.9 °C, and the controller's safe target must sit
	// strictly below it: a spec whose target reaches the limit is refused.
	s := XeonE52650V3()
	if s.MaxOperatingTemp != 78.9 {
		t.Errorf("vendor limit = %v, want 78.9", s.MaxOperatingTemp)
	}
	if s.SafeTemp >= s.MaxOperatingTemp {
		t.Errorf("safe target %v should be below the limit %v", s.SafeTemp, s.MaxOperatingTemp)
	}
	atLimit := s
	atLimit.SafeTemp = s.MaxOperatingTemp
	if atLimit.Validate() == nil {
		t.Error("a safe target at the vendor limit should be refused")
	}
}

func TestAlternativeSKUsValidate(t *testing.T) {
	for _, s := range []Spec{XeonE52680V4(), XeonD1540()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Model, err)
		}
	}
}

func TestSKUPowerEnvelopes(t *testing.T) {
	hi := XeonE52680V4()
	lo := XeonD1540()
	base := XeonE52650V3()
	// TDP-class ordering at full load: D-1540 << E5-2650 << E5-2680.
	if !(lo.Power(1) < base.Power(1) && base.Power(1) < hi.Power(1)) {
		t.Errorf("full-load power ordering broken: %v, %v, %v",
			lo.Power(1), base.Power(1), hi.Power(1))
	}
	if p := float64(hi.Power(1)); p < 80 || p > 100 {
		t.Errorf("E5-2680 V4 full power = %v, want ~88", p)
	}
	if p := float64(lo.Power(1)); p < 28 || p > 40 {
		t.Errorf("D-1540 full power = %v, want ~33", p)
	}
}

func TestSKUSafetyStructureHolds(t *testing.T) {
	// Each SKU keeps the warm-water safety structure: a safe inlet exists
	// at high flow that pins the die to its own safe target with a
	// positive TEG gradient against a 20 degree cold source.
	for _, s := range []Spec{XeonE52650V3(), XeonE52680V4(), XeonD1540()} {
		tin := inletForTemperature(s, s.SafeTemp, 0.25, 250)
		if tin < 40 {
			t.Errorf("%s: safe inlet %v too cold for warm-water operation", s.Model, tin)
		}
		out := tin + s.OutletDeltaT(0.25, 250)
		if out <= 40 {
			t.Errorf("%s: outlet %v not warm enough for harvesting", s.Model, out)
		}
		if got := s.Temperature(0.25, 250, tin); got > s.SafeTemp+0.001 {
			t.Errorf("%s: inlet inversion violated safety: %v", s.Model, got)
		}
	}
}
