package storage

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/h2p-sim/h2p/internal/units"
)

func TestNewElementValidation(t *testing.T) {
	cases := []struct{ cap, chg, dis, eff float64 }{
		{0, 1, 1, 0.9},
		{1, 0, 1, 0.9},
		{1, 1, 0, 0.9},
		{1, 1, 1, 0},
		{1, 1, 1, 1.1},
	}
	for i, c := range cases {
		if _, err := NewElement("x", c.cap, c.chg, c.dis, c.eff); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewElement("ok", 10, 5, 5, 0.9); err != nil {
		t.Errorf("valid element rejected: %v", err)
	}
}

func TestChargeDischargeRoundTripEfficiency(t *testing.T) {
	e, _ := NewElement("x", 100, 50, 50, 0.8)
	accepted := e.Charge(10, 1) // 10 W for 1 h
	if accepted != 10 {
		t.Fatalf("accepted %v, want 10", accepted)
	}
	if math.Abs(e.StoredWh()-8) > 1e-12 {
		t.Errorf("stored %v Wh, want 8 (80%% efficiency)", e.StoredWh())
	}
	out := e.Discharge(100, 1)
	if math.Abs(float64(out)-8) > 1e-12 {
		t.Errorf("delivered %v, want 8", out)
	}
	if e.StoredWh() != 0 {
		t.Errorf("element not empty: %v", e.StoredWh())
	}
}

func TestChargeRespectsRateAndCapacity(t *testing.T) {
	e, _ := NewElement("x", 10, 5, 5, 1.0)
	if got := e.Charge(50, 1); got != 5 {
		t.Errorf("rate limit: accepted %v, want 5", got)
	}
	// 5 Wh stored, 5 Wh room: charging 50 W for another 2h accepts only
	// what fits.
	got := e.Charge(50, 2)
	if math.Abs(float64(got)-2.5) > 1e-12 {
		t.Errorf("capacity limit: accepted %v, want 2.5", got)
	}
	if soc := e.StoredWh() / e.CapacityWh; math.Abs(soc-1) > 1e-12 {
		t.Errorf("SoC = %v, want 1", soc)
	}
	if e.Charge(1, 1) != 0 {
		t.Error("full element should refuse charge")
	}
}

func TestDischargeRespectsRateAndStock(t *testing.T) {
	e, _ := NewElement("x", 10, 10, 3, 1.0)
	e.Charge(10, 1)
	if got := e.Discharge(50, 1); got != 3 {
		t.Errorf("rate limit: delivered %v, want 3", got)
	}
	if got := e.Discharge(50, 10); math.Abs(float64(got)-0.7) > 1e-12 {
		t.Errorf("stock limit: delivered %v, want 0.7", got)
	}
	if e.Discharge(1, 1) != 0 {
		t.Error("empty element should deliver nothing")
	}
}

func TestChargeNeverOverfillsProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		e, _ := NewElement("x", 5, 40, 40, 0.93)
		for _, s := range steps {
			e.Charge(units.Watts(s), 0.25)
			if e.StoredWh() > e.CapacityWh+1e-9 {
				return false
			}
			if e.StoredWh() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHybridBufferPrefersSuperCap(t *testing.T) {
	b := NewServerBuffer()
	r, err := b.Step(10, 4, 0.25) // 6 W surplus for 15 min
	if err != nil {
		t.Fatal(err)
	}
	if r.Direct != 4 || r.Stored != 6 || r.Spilled != 0 {
		t.Errorf("step = %+v", r)
	}
	// The SC (50 W limit, plenty of room) takes the whole surplus.
	if b.Battery.StoredWh() != 0 {
		t.Errorf("battery charged %v Wh before SC was full", b.Battery.StoredWh())
	}
	if b.SC.StoredWh() <= 0 {
		t.Error("SC should hold the surplus")
	}
}

func TestHybridBufferOverflowsToBattery(t *testing.T) {
	b := NewServerBuffer()
	// Sustained surplus beyond the SC capacity lands in the battery.
	for i := 0; i < 20; i++ {
		if _, err := b.Step(9, 4, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	if b.Battery.StoredWh() <= 0 {
		t.Error("battery should absorb sustained surplus")
	}
}

func TestHybridBufferCoversDeficit(t *testing.T) {
	b := NewServerBuffer()
	if _, err := b.Step(10, 0, 1); err != nil { // bank 10 W for an hour
		t.Fatal(err)
	}
	r, err := b.Step(0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.FromBuffer <= 0 {
		t.Errorf("buffer should cover deficit: %+v", r)
	}
	if r.Unmet > 0 && b.StoredWh() > 1e-9 {
		t.Errorf("unmet demand while energy remains: %+v", r)
	}
}

func TestStepErrors(t *testing.T) {
	b := NewServerBuffer()
	if _, err := b.Step(-1, 0, 1); err == nil {
		t.Error("negative generation should error")
	}
	if _, err := b.Step(0, -1, 1); err == nil {
		t.Error("negative demand should error")
	}
	if _, err := b.Step(0, 0, 0); err == nil {
		t.Error("zero step should error")
	}
	var empty HybridBuffer
	if _, err := empty.Step(1, 1, 1); err == nil {
		t.Error("unconfigured buffer should error")
	}
}

func TestSmoothTEGDayAgainstLEDLoad(t *testing.T) {
	// A diurnal TEG series (high at night, low at midday) against a
	// constant 3.5 W LED load (Sec. VI-C2). The buffer should bridge the
	// midday dip.
	var gen []units.Watts
	for i := 0; i < 288; i++ { // 24 h at 5-minute steps
		phase := 2 * math.Pi * float64(i) / 288
		gen = append(gen, units.Watts(4.1+0.5*math.Cos(phase))) // dip mid-series
	}
	b := NewServerBuffer()
	rep, err := b.Smooth(gen, 3.5, float64(5)/60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 288 {
		t.Errorf("steps = %d", rep.Steps)
	}
	if rep.CoverageRatio < 0.999 {
		t.Errorf("coverage = %v, want ~1 (generation exceeds demand on average)", rep.CoverageRatio)
	}
	if rep.UnmetIntervals != 0 {
		t.Errorf("unmet intervals = %d, want 0", rep.UnmetIntervals)
	}
	// Energy conservation: delivered + spilled + stored <= generated.
	residual := rep.GeneratedWh - rep.DeliveredWh - rep.SpilledWh - b.StoredWh()
	// Charging losses make the residual positive (lost energy).
	if residual < -1e-9 {
		t.Errorf("energy created from nothing: residual %v", residual)
	}
}

func TestSmoothUndersizedGeneration(t *testing.T) {
	gen := make([]units.Watts, 100)
	for i := range gen {
		gen[i] = 1 // 1 W against a 4 W load
	}
	b := NewServerBuffer()
	rep, err := b.Smooth(gen, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoverageRatio > 0.5 {
		t.Errorf("coverage = %v, expected deep shortfall", rep.CoverageRatio)
	}
	if rep.UnmetIntervals == 0 {
		t.Error("expected unmet intervals")
	}
}

func TestSmoothErrors(t *testing.T) {
	b := NewServerBuffer()
	if _, err := b.Smooth(nil, 4, 0.25); err == nil {
		t.Error("empty series should error")
	}
	if _, err := b.Smooth([]units.Watts{1}, -1, 0.25); err == nil {
		t.Error("negative demand should error")
	}
	if _, err := b.Smooth([]units.Watts{1}, 1, 0); err == nil {
		t.Error("zero step should error")
	}
}
