package thermalnet

import (
	"math"
	"math/rand"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/units"
)

// chain builds the canonical heat path coolant <- plate <- cpu with the
// given conductances and returns the three node ids.
func chain(t *testing.T, net *Network, coolant units.Celsius, gCPUPlate, gPlateCoolant float64) (cool, plate, die NodeID) {
	t.Helper()
	cool = net.AddBoundary("coolant", coolant)
	var err error
	die, err = net.AddNode("cpu", 50+400*gCPUPlate, coolant)
	if err != nil {
		t.Fatal(err)
	}
	plate, err = net.AddNode("plate", 100, coolant)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(die, plate, gCPUPlate); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(plate, cool, gPlateCoolant); err != nil {
		t.Fatal(err)
	}
	return cool, plate, die
}

// Property: with heat injected at the die end of a chain, steady-state
// temperatures order monotonically along the heat path —
// coolant <= plate <= die — and every temperature is finite.
func TestPropertyChainTemperatureOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var net Network
		coolant := units.Celsius(15 + 35*rng.Float64())
		g1 := 0.2 + 10*rng.Float64() // die-plate (a TEG chokes this to ~0.5)
		g2 := 5 + 30*rng.Float64()   // plate-coolant
		cool, plate, die := chain(t, &net, coolant, g1, g2)
		power := units.Watts(5 + 120*rng.Float64())
		if err := net.SetPower(die, power); err != nil {
			t.Fatal(err)
		}
		if _, err := net.SteadyState(1e-6, 24*3600, 0.5); err != nil {
			t.Fatal(err)
		}
		tc, _ := net.Temp(cool)
		tp, err := net.Temp(plate)
		if err != nil {
			t.Fatal(err)
		}
		td, err := net.Temp(die)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []units.Celsius{tc, tp, td} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("trial %d: non-finite temperature %v", trial, v)
			}
		}
		if !(tc <= tp && tp <= td) {
			t.Fatalf("trial %d (g1=%v g2=%v P=%v): ordering violated: coolant %v, plate %v, die %v",
				trial, g1, g2, power, tc, tp, td)
		}
		// The steady state matches the analytic series-resistance solution.
		want := float64(coolant) + float64(power)*(1/g1+1/g2)
		if math.Abs(float64(td)-want) > 0.1 {
			t.Fatalf("trial %d: die %v, analytic %v", trial, td, want)
		}
	}
}

// Property: steady-state die temperature is monotone in injected power on a
// fixed network.
func TestPropertyMonotoneInPower(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		g1, g2 := 0.3+5*rng.Float64(), 5+20*rng.Float64()
		p1 := units.Watts(120 * rng.Float64())
		p2 := p1 + units.Watts(1+50*rng.Float64())
		solve := func(p units.Watts) units.Celsius {
			var net Network
			_, _, die := chain(t, &net, 25, g1, g2)
			if err := net.SetPower(die, p); err != nil {
				t.Fatal(err)
			}
			if _, err := net.SteadyState(1e-6, 24*3600, 0.5); err != nil {
				t.Fatal(err)
			}
			v, err := net.Temp(die)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		if t1, t2 := solve(p1), solve(p2); t2 < t1 {
			t.Fatalf("trial %d: more power cooled the die: P %v->%v, T %v->%v", trial, p1, p2, t1, t2)
		}
	}
}

// Property: a transient Advance never overshoots to non-finite values, even
// with stiff conductance ratios.
func TestPropertyTransientStaysFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		var net Network
		_, plate, die := chain(t, &net, 20, 0.2+50*rng.Float64(), 0.2+50*rng.Float64())
		if err := net.SetPower(die, units.Watts(200*rng.Float64())); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			if err := net.Advance(30, 0.5); err != nil {
				t.Fatal(err)
			}
			for _, id := range []NodeID{plate, die} {
				v, err := net.Temp(id)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("trial %d step %d: node %d non-finite: %v", trial, step, id, v)
				}
			}
		}
	}
}

// Property: across the calibrated operating grid, the coolant outlet
// temperature never exceeds the die temperature under positive flow — heat
// flows from die to coolant, so the stream leaves cooler than the die that
// heated it.
func TestPropertyOutletNeverExceedsDieTemp(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, spec := range []cpu.Spec{cpu.XeonE52650V3(), cpu.XeonE52680V4(), cpu.XeonD1540()} {
		for trial := 0; trial < 200; trial++ {
			u := rng.Float64()
			flow := units.LitersPerHour(20 + 280*rng.Float64())
			tin := units.Celsius(20 + 40*rng.Float64())
			outlet := tin + spec.OutletDeltaT(u, flow)
			die := spec.Temperature(u, flow, tin)
			if outlet > die {
				t.Fatalf("%s: outlet %v exceeds die %v at u=%.3f flow=%v tin=%v",
					spec.Model, outlet, die, u, flow, tin)
			}
		}
	}
}
