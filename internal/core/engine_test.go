package core

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

func smallConfig(scheme sched.Scheme) Config {
	cfg := DefaultConfig(scheme)
	cfg.ServersPerCirculation = 20
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(sched.Original).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.ServersPerCirculation = 0 },
		func(c *Config) { c.TEGsPerServer = 0 },
		func(c *Config) { c.Scheme = "bogus" },
		func(c *Config) { c.PumpMaxFlow = 0 },
		func(c *Config) { c.Spec.MaxOperatingTemp = 0 },
	}
	for i, mut := range cases {
		cfg := DefaultConfig(sched.Original)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("zero config should not build an engine")
	}
}

// TestEngineControllerCarriesConfigSetup pins that the controller an engine
// exposes — the one experiments take instead of wiring their own — is built
// from the config: it carries the decision quantum and reports into the
// configured telemetry registry, whether the engine comes from NewEngine or
// a Fleet.
func TestEngineControllerCarriesConfigSetup(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func(Config) (*Engine, error){"NewEngine": NewEngine, "Fleet": NewFleet().Engine}
	for name, newEngine := range build {
		cfg := smallConfig(sched.LoadBalance)
		cfg.DecisionQuantum = 1.0 / 512
		cfg.Telemetry = telemetry.New()
		eng, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if q := eng.Controller().CacheQuantum; q != cfg.DecisionQuantum {
			t.Errorf("%s: controller quantum = %v, want %v", name, q, cfg.DecisionQuantum)
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
			t.Errorf("%s: run recorded no decision calls in the telemetry registry", name)
		}
	}
}

func TestRunBasicAccounting(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) != tr.Intervals() {
		t.Fatalf("intervals = %d, want %d", len(res.Intervals), tr.Intervals())
	}
	if res.Servers != 60 || res.Interval != 5*time.Minute {
		t.Errorf("metadata: %d servers, %v interval", res.Servers, res.Interval)
	}
	for i, ir := range res.Intervals {
		if ir.TotalTEGPower <= 0 || ir.TotalCPUPower <= 0 {
			t.Fatalf("interval %d: non-positive powers %+v", i, ir)
		}
		if ir.TEGPowerPerServer <= 0 || ir.TEGPowerPerServer > 6 {
			t.Fatalf("interval %d: per-server TEG power %v implausible", i, ir.TEGPowerPerServer)
		}
		if ir.MaxCPUTemp > 63.2 {
			t.Fatalf("interval %d: unsafe CPU temp %v", i, ir.MaxCPUTemp)
		}
		if ir.PumpPower <= 0 {
			t.Fatalf("interval %d: pump power %v", i, ir.PumpPower)
		}
		if ir.MeanFlow < 20 || ir.MeanFlow > 250 {
			t.Fatalf("interval %d: mean flow %v outside grid", i, ir.MeanFlow)
		}
	}
	if res.PRE <= 0 || res.PRE > 0.25 {
		t.Errorf("PRE = %v, implausible", res.PRE)
	}
	if res.TEGEnergy <= 0 || res.CPUEnergy <= res.TEGEnergy {
		t.Errorf("energies: TEG %v CPU %v", res.TEGEnergy, res.CPUEnergy)
	}
	if res.PeakTEGPowerPerServer < res.AvgTEGPowerPerServer {
		t.Errorf("peak %v below average %v", res.PeakTEGPowerPerServer, res.AvgTEGPowerPerServer)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	eng, err := NewEngine(smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := trace.New("bad", trace.Common, 2, 2, time.Minute)
	tr.U[0][0] = 2 // invalid utilization
	if _, err := eng.Run(tr); err == nil {
		t.Error("invalid trace should error")
	}
}

func TestLoadBalanceBeatsOriginalOnAllClasses(t *testing.T) {
	trs, err := trace.GenerateAll(100, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		orig, lb, err := NewFleet().CompareContext(context.Background(), tr, smallConfig(sched.Original))
		if err != nil {
			t.Fatal(err)
		}
		if lb.AvgTEGPowerPerServer <= orig.AvgTEGPowerPerServer {
			t.Errorf("%s: LoadBalance %v should beat Original %v",
				tr.Class, lb.AvgTEGPowerPerServer, orig.AvgTEGPowerPerServer)
		}
		if lb.PRE <= orig.PRE {
			t.Errorf("%s: LoadBalance PRE %v should beat Original %v",
				tr.Class, lb.PRE, orig.PRE)
		}
	}
}

func TestPowerAnticorrelatesWithUtilization(t *testing.T) {
	// Fig. 14a: when utilization is high, generated power is low. Check a
	// negative correlation between the interval series.
	tr, err := trace.Generate(trace.DrasticConfig(100), 23)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallConfig(sched.LoadBalance))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	var su, sp, suu, spp, sup float64
	n := float64(len(res.Intervals))
	for _, ir := range res.Intervals {
		u, p := ir.AvgUtilization, float64(ir.TEGPowerPerServer)
		su += u
		sp += p
		suu += u * u
		spp += p * p
		sup += u * p
	}
	cov := sup/n - su/n*sp/n
	varU := suu/n - su/n*su/n
	varP := spp/n - sp/n*sp/n
	if varU == 0 || varP == 0 {
		t.Skip("degenerate series")
	}
	r := cov / math.Sqrt(varU*varP)
	if r > -0.5 {
		t.Errorf("correlation(u, power) = %.3f, want strongly negative", r)
	}
}

func TestWarmWaterOperationAvoidsChiller(t *testing.T) {
	// The chosen warm inlet targets keep the facility plant in the
	// tower-only regime for the overwhelming majority of intervals.
	tr, err := trace.Generate(trace.CommonConfig(60), 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallConfig(sched.LoadBalance))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	chillerIntervals := 0
	for _, ir := range res.Intervals {
		if ir.ChillerPower > 0 {
			chillerIntervals++
		}
	}
	if frac := float64(chillerIntervals) / float64(len(res.Intervals)); frac > 0.05 {
		t.Errorf("chiller active in %.1f%% of intervals, expected near zero under warm water", frac*100)
	}
}

func TestReproductionBandsFullScale(t *testing.T) {
	// The headline Fig. 14/15 reproduction at the paper's scale:
	// 1000 servers. Skipped with -short.
	if testing.Short() {
		t.Skip("full-scale reproduction skipped in short mode")
	}
	trs, err := trace.GenerateAll(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sumOrig, sumLB, sumPreLB float64
	for _, tr := range trs {
		orig, lb, err := NewFleet().CompareContext(context.Background(), tr, DefaultConfig(sched.Original))
		if err != nil {
			t.Fatal(err)
		}
		po, pl := float64(orig.AvgTEGPowerPerServer), float64(lb.AvgTEGPowerPerServer)
		// Paper bands: Original 3.586-3.772 W, LoadBalance 3.979-4.349 W.
		if po < 3.4 || po > 4.0 {
			t.Errorf("%s: Original avg %v W outside the published band", tr.Class, po)
		}
		if pl < 3.9 || pl > 4.45 {
			t.Errorf("%s: LoadBalance avg %v W outside the published band", tr.Class, pl)
		}
		// PRE bands: 11.9-16.2%.
		if lb.PRE < 0.115 || lb.PRE > 0.175 {
			t.Errorf("%s: LoadBalance PRE %v outside the published band", tr.Class, lb.PRE)
		}
		sumOrig += po
		sumLB += pl
		sumPreLB += lb.PRE
	}
	gain := sumLB/sumOrig - 1
	// Paper: +13.08% average improvement.
	if gain < 0.08 || gain > 0.18 {
		t.Errorf("load-balancing gain = %.1f%%, want ~13%%", gain*100)
	}
	if avg := sumLB / 3; avg < 4.0 || avg > 4.35 {
		t.Errorf("average LoadBalance power %v, paper reports 4.177 W", avg)
	}
	if avgPre := sumPreLB / 3; avgPre < 0.125 || avgPre > 0.16 {
		t.Errorf("average LoadBalance PRE %v, paper reports 14.23%%", avgPre)
	}
}

func TestCirculationSizeOneIsUpperBound(t *testing.T) {
	// Each server monopolizing one circulation is the most power-efficient
	// arrangement (Sec. V-A): per-server cooling settings dominate shared
	// ones under Original scheduling.
	tr, err := trace.Generate(trace.DrasticConfig(40), 3)
	if err != nil {
		t.Fatal(err)
	}
	mono := smallConfig(sched.Original)
	mono.ServersPerCirculation = 1
	em, err := NewEngine(mono)
	if err != nil {
		t.Fatal(err)
	}
	shared := smallConfig(sched.Original)
	shared.ServersPerCirculation = 40
	es, err := NewEngine(shared)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := em.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := es.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rm.AvgTEGPowerPerServer <= rs.AvgTEGPowerPerServer {
		t.Errorf("per-server circulations (%v) should beat shared (%v)",
			rm.AvgTEGPowerPerServer, rs.AvgTEGPowerPerServer)
	}
}

func TestCirculationLargerThanClusterClamps(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.Original)
	cfg.ServersPerCirculation = 500 // larger than the cluster
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(tr); err != nil {
		t.Fatalf("oversized circulation should clamp, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	tr, err := trace.Generate(trace.IrregularConfig(30), 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallConfig(sched.LoadBalance))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgTEGPowerPerServer != b.AvgTEGPowerPerServer || a.PRE != b.PRE {
		t.Error("simulation is not deterministic")
	}
}
