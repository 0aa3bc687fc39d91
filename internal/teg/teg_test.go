package teg

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/h2p-sim/h2p/internal/units"
)

func TestSP1848MatchesPaperConstants(t *testing.T) {
	d := SP1848()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.InternalResistance != 2 {
		t.Errorf("R = %v, want 2 ohms", d.InternalResistance)
	}
	if d.UnitCost != 1 {
		t.Errorf("cost = %v, want $1", d.UnitCost)
	}
	// Eq. 3 at dT = 25: v = 0.0448*25 - 0.0051 = 1.1149 V.
	if v := d.OpenCircuitVoltage(25); math.Abs(float64(v)-1.1149) > 1e-12 {
		t.Errorf("v(25) = %v, want 1.1149", v)
	}
	// Eq. 6 at dT = 25: 0.0003*625 - 0.0003*25 + 0.0011 = 0.1811 W.
	if p := d.MaxPowerEmpirical(25); math.Abs(float64(p)-0.1811) > 1e-12 {
		t.Errorf("Pmax(25) = %v, want 0.1811", p)
	}
}

func TestOpenCircuitVoltageIsOddAndZeroAtZero(t *testing.T) {
	d := SP1848()
	if v := d.OpenCircuitVoltage(0); v != 0 {
		t.Errorf("v(0) = %v, want 0", v)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		dt := units.Celsius(math.Mod(x, 120))
		return math.Abs(float64(d.OpenCircuitVoltage(dt)+d.OpenCircuitVoltage(-dt))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVoltageNonNegativeForSmallPositiveDT(t *testing.T) {
	// The fitted intercept is negative; the model must clamp rather than
	// report a negative voltage for tiny positive gradients.
	d := SP1848()
	if v := d.OpenCircuitVoltage(0.05); v < 0 {
		t.Errorf("v(0.05) = %v, want >= 0", v)
	}
}

func TestMaxPowerMonotoneInDeltaT(t *testing.T) {
	d := SP1848()
	prevE, prevP := -1.0, -1.0
	for dt := units.Celsius(1); dt <= 40; dt++ {
		e := float64(d.MaxPowerEmpirical(dt))
		p := float64(d.MaxPowerPhysics(dt))
		if e < prevE || p < prevP {
			t.Fatalf("power not monotone at dT=%v: emp %v->%v phys %v->%v", dt, prevE, e, prevP, p)
		}
		prevE, prevP = e, p
	}
}

func TestModuleSeriesScaling(t *testing.T) {
	d := SP1848()
	for _, n := range []int{1, 2, 6, 12} {
		m, err := NewModule(d, n)
		if err != nil {
			t.Fatal(err)
		}
		// Voc_n = n*v (Eq. 4).
		v1 := float64(d.OpenCircuitVoltage(20))
		if got := float64(m.OpenCircuitVoltage(20, 200)); math.Abs(got-float64(n)*v1) > 1e-12 {
			t.Errorf("n=%d: Voc = %v, want %v", n, got, float64(n)*v1)
		}
		// Pmax_n = n*Pmax_1 (Eq. 7).
		p1 := float64(d.MaxPowerEmpirical(20))
		if got := float64(m.MaxPower(20, 200)); math.Abs(got-float64(n)*p1) > 1e-12 {
			t.Errorf("n=%d: Pmax = %v, want %v", n, got, float64(n)*p1)
		}
		if got := m.Resistance(); got != units.Ohms(2*float64(n)) {
			t.Errorf("n=%d: R = %v", n, got)
		}
	}
}

func TestTwelveTEGModuleReachesPaperOperatingPoint(t *testing.T) {
	// At the datacenter operating point the paper reports ~4.18 W per CPU
	// with 12 TEGs; that requires dT ~ 34.5°C by Eq. 7.
	m, _ := NewModule(SP1848(), 12)
	p := float64(m.MaxPower(34.5, 200))
	if p < 4.0 || p > 4.4 {
		t.Errorf("P(34.5°C) = %v W, want ~4.18", p)
	}
	// And >1.8 W above 25°C as stated in Sec. IV-B1.
	if p := float64(m.MaxPower(26, 200)); p <= 1.8 {
		t.Errorf("P(26°C) = %v, want > 1.8 W", p)
	}
}

func TestPowerAtLoadMaximizedAtMatchedLoad(t *testing.T) {
	m, _ := NewModule(SP1848(), 6)
	match := m.Resistance()
	pm, err := m.PowerAtLoad(20, 200, match)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []units.Ohms{0.5, 4, 8, 11.9, 12.1, 24, 100} {
		p, err := m.PowerAtLoad(20, 200, load)
		if err != nil {
			t.Fatal(err)
		}
		if p > pm+1e-12 {
			t.Errorf("load %v gives %v > matched %v", load, p, pm)
		}
	}
	// Matched-load power equals the physics Pmax.
	if phys := m.MaxPowerPhysics(20, 200); math.Abs(float64(pm-phys)) > 1e-12 {
		t.Errorf("matched power %v != physics Pmax %v", pm, phys)
	}
}

func TestPowerAtLoadErrors(t *testing.T) {
	m, _ := NewModule(SP1848(), 6)
	if _, err := m.PowerAtLoad(20, 200, -1); err == nil {
		t.Error("negative load should error")
	}
}

func TestModuleErrors(t *testing.T) {
	if _, err := NewModule(SP1848(), 0); err == nil {
		t.Error("zero-size module should error")
	}
	bad := SP1848()
	bad.SeebeckSlope = 0
	if _, err := NewModule(bad, 6); err == nil {
		t.Error("invalid device should error")
	}
}

func TestDeviceValidation(t *testing.T) {
	cases := []func(*Device){
		func(d *Device) { d.SeebeckSlope = -1 },
		func(d *Device) { d.InternalResistance = 0 },
		func(d *Device) { d.ThermalConductance = -0.1 },
		func(d *Device) { d.LifespanYears = 0 },
	}
	for i, mut := range cases {
		d := SP1848()
		mut(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestModuleCostMatchesTableI(t *testing.T) {
	// Table I: 12 TEGs at $1 per server.
	m, _ := NewModule(SP1848(), 12)
	if c := m.Cost(); c != 12 {
		t.Errorf("module cost = %v, want $12", c)
	}
}

func TestConversionEfficiencyRange(t *testing.T) {
	d := SP1848()
	if e := d.ConversionEfficiency(0); e != 0 {
		t.Errorf("efficiency at dT=0 = %v", e)
	}
	// Bi2Te3 conversion efficiency is a few percent (Sec. VI-D says ~5%).
	e := d.ConversionEfficiency(35)
	if e <= 0 || e > 0.10 {
		t.Errorf("efficiency(35) = %v, want (0, 0.10]", e)
	}
	// Efficiency grows with dT in this regime.
	if d.ConversionEfficiency(10) >= d.ConversionEfficiency(30) {
		t.Error("efficiency should grow with dT")
	}
}

func TestHeatFlowNearAdiabatic(t *testing.T) {
	d := SP1848()
	// A 50°C gradient conducts only ~25 W: far below a 77 W CPU load,
	// which is why Fig. 3 shows the TEG-sandwiched CPU overheating.
	q := float64(d.HeatFlow(50))
	if q <= 0 || q > 30 {
		t.Errorf("heat flow at 50°C = %v W, expected small (near-adiabatic)", q)
	}
}

func TestFlowDeratingSmallAndNormalized(t *testing.T) {
	fd := DefaultFlowDerating()
	if f := fd.Factor(200); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor at reference = %v, want 1", f)
	}
	// Monotone increasing in flow.
	prev := -1.0
	for _, fl := range []units.LitersPerHour{0, 10, 20, 40, 100, 200, 400} {
		f := fd.Factor(fl)
		if f < prev {
			t.Fatalf("derating not monotone at %v", fl)
		}
		prev = f
	}
	// The Fig. 7 effect is "too little to be worth making": under 10%
	// even at the lowest prototype flow.
	if f := fd.Factor(10); f < 0.90 || f >= 1 {
		t.Errorf("factor(10 L/H) = %v, want within [0.90, 1)", f)
	}
	// Negative flow is treated as zero, not amplified.
	if fd.Factor(-5) != fd.Factor(0) {
		t.Error("negative flow should clamp to zero")
	}
}

func TestModuleWithDeratingReducesOutput(t *testing.T) {
	m, _ := NewModule(SP1848(), 6)
	m.FlowDerating = DefaultFlowDerating()
	low := m.MaxPower(20, 10)
	ref := m.MaxPower(20, 200)
	if low >= ref {
		t.Errorf("low-flow power %v should be below reference %v", low, ref)
	}
	if float64(low) < 0.85*float64(ref) {
		t.Errorf("derating too strong: %v vs %v", low, ref)
	}
}
