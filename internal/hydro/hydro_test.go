package hydro

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/h2p-sim/h2p/internal/units"
)

// Flow returns the pump's current flow setpoint.
func (p *Pump) Flow() units.LitersPerHour { return p.flow }

func TestPumpFlowControl(t *testing.T) {
	p := &Pump{Name: "warm", MaxFlow: 300, RatedPower: 30}
	if err := p.SetFlow(200); err != nil {
		t.Fatal(err)
	}
	if p.Flow() != 200 {
		t.Errorf("flow = %v", p.Flow())
	}
	if err := p.SetFlow(-1); err == nil {
		t.Error("negative flow should error")
	}
	if err := p.SetFlow(301); err == nil {
		t.Error("over-max flow should error")
	}
}

func TestPumpAffinityLaw(t *testing.T) {
	p := &Pump{Name: "warm", MaxFlow: 300, RatedPower: 30}
	if err := p.SetFlow(0); err != nil {
		t.Fatal(err)
	}
	if p.Power() != 0 {
		t.Errorf("idle power = %v, want 0", p.Power())
	}
	if err := p.SetFlow(300); err != nil {
		t.Fatal(err)
	}
	if p.Power() != 30 {
		t.Errorf("full power = %v, want 30", p.Power())
	}
	// Half flow costs 1/8 of the dynamic term.
	if err := p.SetFlow(150); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(p.Power())-30.0/8) > 1e-12 {
		t.Errorf("half-flow power = %v", p.Power())
	}
	// Zero-capacity pump never divides by zero.
	z := &Pump{Name: "stuck"}
	if got := z.Power(); got != 0 {
		t.Errorf("zero pump power = %v", got)
	}
}

func TestHeatExchangerEnergyBalance(t *testing.T) {
	hx := HeatExchanger{UA: 500}
	res, err := hx.Exchange(52, 200, 20, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Energy given up by hot equals energy absorbed by cold.
	qh := units.AdvectedPower(52-res.HotOut, 200)
	qc := units.AdvectedPower(res.ColdOut-20, 300)
	if math.Abs(float64(qh-qc)) > 1e-9 {
		t.Errorf("energy imbalance: hot %v cold %v", qh, qc)
	}
	if math.Abs(float64(qh-res.Heat)) > 1e-9 {
		t.Errorf("reported heat %v vs hot-side %v", res.Heat, qh)
	}
	// Outlets between the inlets.
	if res.HotOut <= 20 || res.HotOut >= 52 || res.ColdOut <= 20 || res.ColdOut >= 52 {
		t.Errorf("outlets out of range: %+v", res)
	}
}

func TestHeatExchangerEffectivenessBounds(t *testing.T) {
	f := func(uaRaw, hotRaw, coldRaw float64) bool {
		if math.IsNaN(uaRaw) || math.IsNaN(hotRaw) || math.IsNaN(coldRaw) {
			return true
		}
		ua := 1 + math.Abs(math.Mod(uaRaw, 5000))
		hf := units.LitersPerHour(10 + math.Abs(math.Mod(hotRaw, 500)))
		cf := units.LitersPerHour(10 + math.Abs(math.Mod(coldRaw, 500)))
		res, err := HeatExchanger{UA: ua}.Exchange(50, hf, 20, cf)
		if err != nil {
			return false
		}
		return res.Effectiveness > 0 && res.Effectiveness <= 1 &&
			res.HotOut >= 20-1e-9 && res.ColdOut <= 50+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeatExchangerBalancedStreams(t *testing.T) {
	// Equal capacity rates exercise the Cr=1 branch: eff = NTU/(1+NTU).
	hx := HeatExchanger{UA: 233.333333}
	res, err := hx.Exchange(50, 200, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	ntu := hx.UA / units.LitersPerHour(200).HeatCapacityRate()
	want := ntu / (1 + ntu)
	if math.Abs(res.Effectiveness-want) > 1e-9 {
		t.Errorf("effectiveness = %v, want %v", res.Effectiveness, want)
	}
}

func TestHeatExchangerLargeUAApproachesIdeal(t *testing.T) {
	hx := HeatExchanger{UA: 1e9}
	res, err := hx.Exchange(50, 200, 20, 300)
	if err != nil {
		t.Fatal(err)
	}
	// With Cmin on the hot side, the hot outlet approaches the cold inlet.
	if math.Abs(float64(res.HotOut-20)) > 1e-3 {
		t.Errorf("ideal HX hot outlet = %v, want ~20", res.HotOut)
	}
}

func TestHeatExchangerZeroFlowErrors(t *testing.T) {
	hx := HeatExchanger{UA: 100}
	if _, err := hx.Exchange(50, 0, 20, 100); err == nil {
		t.Error("zero hot flow should error")
	}
	if _, err := hx.Exchange(50, 100, 20, 0); err == nil {
		t.Error("zero cold flow should error")
	}
}

func TestHeatExchangerReverseGradient(t *testing.T) {
	// A colder "hot" stream transfers heat the other way; signs flip.
	hx := HeatExchanger{UA: 500}
	res, err := hx.Exchange(20, 200, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Heat >= 0 {
		t.Errorf("heat should be negative, got %v", res.Heat)
	}
	if res.HotOut <= 20 || res.ColdOut >= 50 {
		t.Errorf("streams should move toward each other: %+v", res)
	}
}

func TestSensors(t *testing.T) {
	s := TemperatureSensor{Resolution: 0.1}
	if got := s.Read(41.234); math.Abs(float64(got)-41.2) > 1e-9 {
		t.Errorf("sensor read = %v, want 41.2", got)
	}
	raw := TemperatureSensor{}
	if got := raw.Read(41.234); got != 41.234 {
		t.Errorf("unquantized read = %v", got)
	}
	m := FlowMeter{Resolution: 5}
	if got := m.Read(203); got != 205 {
		t.Errorf("flow read = %v, want 205", got)
	}
	if got := (FlowMeter{}).Read(203); got != 203 {
		t.Errorf("raw flow read = %v", got)
	}
}
