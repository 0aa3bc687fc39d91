package core

import (
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

func allSKUs() []cpu.Spec {
	return []cpu.Spec{cpu.XeonD1540(), cpu.XeonE52650V3(), cpu.XeonE52680V4()}
}

func TestNewHeterogeneousEngineValidation(t *testing.T) {
	cfg := smallConfig(sched.LoadBalance)
	if _, err := NewHeterogeneousEngine(cfg, nil, RoundRobinAssignment(1)); err == nil {
		t.Error("no SKUs should error")
	}
	if _, err := NewHeterogeneousEngine(cfg, allSKUs(), nil); err == nil {
		t.Error("nil assignment should error")
	}
	bad := cfg
	bad.TEGsPerServer = 0
	if _, err := NewHeterogeneousEngine(bad, allSKUs(), RoundRobinAssignment(3)); err == nil {
		t.Error("invalid config should error")
	}
}

func TestHeterogeneousRunMixedFleet(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.LoadBalance) // 20 servers per circulation -> 3 circs
	eng, err := NewHeterogeneousEngine(cfg, allSKUs(), RoundRobinAssignment(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for s := range allSKUs() {
		if res.Circulations[s] != 1 {
			t.Errorf("SKU %d circulations = %d, want 1", s, res.Circulations[s])
		}
		if res.PerSKUPower[s] <= 0 {
			t.Errorf("SKU %d power = %v", s, res.PerSKUPower[s])
		}
		if res.PerSKUPRE[s] <= 0 || res.PerSKUPRE[s] > 0.5 {
			t.Errorf("SKU %d PRE = %v", s, res.PerSKUPRE[s])
		}
	}
	// Low-TDP SKU has the highest PRE.
	if res.PerSKUPRE[0] <= res.PerSKUPRE[1] || res.PerSKUPRE[0] <= res.PerSKUPRE[2] {
		t.Errorf("D-1540 PRE %v should lead: %v", res.PerSKUPRE[0], res.PerSKUPRE)
	}
	// Fleet PRE is bounded by the per-SKU extremes.
	lo, hi := res.PerSKUPRE[0], res.PerSKUPRE[0]
	for _, p := range res.PerSKUPRE {
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	if res.PRE < lo-1e-9 || res.PRE > hi+1e-9 {
		t.Errorf("fleet PRE %v outside SKU range [%v, %v]", res.PRE, lo, hi)
	}
}

func TestHeterogeneousMatchesHomogeneousWithOneSKU(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(40), 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.Original)
	het, err := NewHeterogeneousEngine(cfg, []cpu.Spec{cfg.Spec}, RoundRobinAssignment(1))
	if err != nil {
		t.Fatal(err)
	}
	hres, err := het.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hom.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(hres.AvgTEGPowerPerServer-res.AvgTEGPowerPerServer)) > 1e-9 {
		t.Errorf("single-SKU heterogeneous %v diverges from homogeneous %v",
			hres.AvgTEGPowerPerServer, res.AvgTEGPowerPerServer)
	}
	if math.Abs(hres.PRE-res.PRE) > 1e-9 {
		t.Errorf("PRE diverges: %v vs %v", hres.PRE, res.PRE)
	}
}

func TestHeterogeneousBadAssignment(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(20), 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewHeterogeneousEngine(smallConfig(sched.Original), allSKUs(), func(int) int { return 99 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(tr); err == nil {
		t.Error("out-of-range assignment should error")
	}
}

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{1, 3}, []int{1, 3})
	if math.Abs(got-2.5) > 1e-12 {
		t.Errorf("weighted mean = %v, want 2.5", got)
	}
	if got := WeightedMean([]float64{2, 4}, []int{0, 0}); got != 3 {
		t.Errorf("zero weights should fall back to the plain mean, got %v", got)
	}
}

// TestHeterogeneousControllersCarryEngineSetup pins that every SKU's
// controller is built like a homogeneous engine's: it carries the decision
// quantum and reports into the configured telemetry registry.
func TestHeterogeneousControllersCarryEngineSetup(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.LoadBalance)
	cfg.DecisionQuantum = 1.0 / 512
	cfg.Telemetry = telemetry.New()
	eng, err := NewHeterogeneousEngine(cfg, allSKUs(), RoundRobinAssignment(3))
	if err != nil {
		t.Fatal(err)
	}
	for s, ctl := range eng.controllers {
		if ctl.CacheQuantum != cfg.DecisionQuantum {
			t.Errorf("SKU %d controller quantum = %v, want %v", s, ctl.CacheQuantum, cfg.DecisionQuantum)
		}
	}
	if _, err := eng.Run(tr); err != nil {
		t.Fatal(err)
	}
	var calls uint64
	for _, c := range cfg.Telemetry.Snapshot().Counters {
		if c.Name == "h2p_decision_cache_calls_total" {
			calls = c.Value
		}
	}
	if calls == 0 {
		t.Error("heterogeneous run recorded no decision-cache calls in the telemetry registry")
	}
}
