package core

import (
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

func runWithPlan(t *testing.T, tr *trace.Trace, scheme sched.Scheme, plan *fault.Plan, seed int64) *Result {
	t.Helper()
	cfg := smallConfig(scheme)
	cfg.Faults = plan
	cfg.FaultSeed = seed
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertFinite(t *testing.T, res *Result) {
	t.Helper()
	check := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v", name, v)
		}
	}
	check("AvgTEGPowerPerServer", float64(res.AvgTEGPowerPerServer))
	check("PRE", res.PRE)
	for i, ir := range res.Intervals {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"TEGPowerPerServer", float64(ir.TEGPowerPerServer)},
			{"TotalTEGPower", float64(ir.TotalTEGPower)},
			{"TotalCPUPower", float64(ir.TotalCPUPower)},
			{"MeanInlet", float64(ir.MeanInlet)},
			{"MeanFlow", float64(ir.MeanFlow)},
			{"MeanOutlet", float64(ir.MeanOutlet)},
			{"MaxCPUTemp", float64(ir.MaxCPUTemp)},
			{"PumpPower", float64(ir.PumpPower)},
			{"TowerPower", float64(ir.TowerPower)},
			{"ChillerPower", float64(ir.ChillerPower)},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				t.Fatalf("interval %d: %s = %v", i, f.name, f.v)
			}
		}
	}
}

// The acceptance pin: a nil FaultPlan and an empty FaultPlan produce results
// bit-identical to each other (and, because a nil injector short-circuits
// every fault hook, to an engine predating the fault layer — the golden e2e
// test pins that against committed output).
func TestNilAndEmptyPlanBitIdentical(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(60), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
		base := runWithPlan(t, tr, scheme, nil, 0)
		empty := runWithPlan(t, tr, scheme, &fault.Plan{}, 12345)
		if base.AvgTEGPowerPerServer != empty.AvgTEGPowerPerServer ||
			base.PRE != empty.PRE ||
			base.TEGEnergy != empty.TEGEnergy ||
			base.PlantEnergy != empty.PlantEnergy {
			t.Fatalf("%s: empty plan drifted from nil plan", scheme)
		}
		for i := range base.Intervals {
			if base.Intervals[i] != empty.Intervals[i] {
				t.Fatalf("%s: interval %d drifted: %+v vs %+v",
					scheme, i, base.Intervals[i], empty.Intervals[i])
			}
		}
		if base.Faults.Any() || empty.Faults.Any() {
			t.Fatalf("%s: fault summary non-zero on a fault-free run", scheme)
		}
	}
}

// The headline scenario: 10 % of TEG modules degraded. The run completes on
// every trace class, every series value stays finite, and harvest strictly
// drops below the healthy baseline.
func TestTenPercentDegradationAllTraces(t *testing.T) {
	trs, err := trace.GenerateAll(60, 21)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("teg-degrade:0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		base := runWithPlan(t, tr, sched.LoadBalance, nil, 0)
		faulted := runWithPlan(t, tr, sched.LoadBalance, plan, 7)
		assertFinite(t, faulted)
		if faulted.AvgTEGPowerPerServer >= base.AvgTEGPowerPerServer {
			t.Errorf("%s: degraded run (%v) not below baseline (%v)",
				tr.Class, faulted.AvgTEGPowerPerServer, base.AvgTEGPowerPerServer)
		}
		if faulted.Faults.DegradedTEG == 0 {
			t.Errorf("%s: no degraded module-intervals recorded", tr.Class)
		}
	}
}

// Open-circuit modules are excluded from the harvest sum AND the per-server
// mean's denominator, so the mean reflects the surviving population instead
// of being diluted toward zero — and a fully open plant yields zeros, never
// NaNs.
func TestOpenCircuitExclusion(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(40), 3)
	if err != nil {
		t.Fatal(err)
	}
	base := runWithPlan(t, tr, sched.LoadBalance, nil, 0)

	// Half the population open: the per-server mean over survivors should
	// stay close to the healthy mean, not halve.
	half := &fault.Plan{Specs: []fault.Spec{{Kind: fault.TEGOpen, Rate: 0.5}}}
	res := runWithPlan(t, tr, sched.LoadBalance, half, 3)
	assertFinite(t, res)
	if res.Faults.OpenTEG == 0 {
		t.Fatal("no open-circuit modules recorded")
	}
	lo, hi := 0.9*float64(base.AvgTEGPowerPerServer), 1.1*float64(base.AvgTEGPowerPerServer)
	if got := float64(res.AvgTEGPowerPerServer); got < lo || got > hi {
		t.Errorf("survivor mean %v outside [%v, %v] around healthy mean", got, lo, hi)
	}

	// Every module open: harvest is zero, means stay finite.
	all := &fault.Plan{Specs: []fault.Spec{{Kind: fault.TEGOpen, Windows: []fault.Window{{From: 0, To: 1 << 30, Unit: -1}}}}}
	res = runWithPlan(t, tr, sched.LoadBalance, all, 0)
	assertFinite(t, res)
	if res.AvgTEGPowerPerServer != 0 {
		t.Errorf("fully open plant harvested %v", res.AvgTEGPowerPerServer)
	}
	for i, ir := range res.Intervals {
		if ir.HealthyTEGServers != 0 || ir.TEGPowerPerServer != 0 {
			t.Fatalf("interval %d: healthy=%d power=%v", i, ir.HealthyTEGServers, ir.TEGPowerPerServer)
		}
		// The plant physics are unaffected: CPUs still draw and reject heat.
		if ir.TotalCPUPower <= 0 {
			t.Fatalf("interval %d: CPU power %v", i, ir.TotalCPUPower)
		}
	}
}

// A transient step error is retried and recovered; a permanent one degrades
// the circulation's interval instead of aborting the run.
func TestStepErrorRetryAndDegrade(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(40), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Rate-1 step errors fail every attempt of every interval: the run must
	// still complete, with every circulation-interval degraded and all
	// physical means zeroed, never NaN.
	perm := &fault.Plan{
		Specs: []fault.Spec{{Kind: fault.StepError, Windows: []fault.Window{{From: 0, To: 1 << 30, Unit: -1}}}},
		Retry: fault.RetryPolicy{MaxAttempts: 2},
	}
	res := runWithPlan(t, tr, sched.Original, perm, 0)
	assertFinite(t, res)
	if res.Faults.DegradedIntervals == 0 || res.Faults.StepRetries == 0 {
		t.Fatalf("faults = %+v, want degraded intervals and retries", res.Faults)
	}
	for i, ir := range res.Intervals {
		if ir.DegradedCirculations != 2 { // 40 servers / 20 per circulation
			t.Fatalf("interval %d: %d degraded circulations, want 2", i, ir.DegradedCirculations)
		}
		if ir.TotalTEGPower != 0 || ir.MeanInlet != 0 {
			t.Fatalf("interval %d: degraded interval carries physics %+v", i, ir)
		}
	}

	// At a moderate transient rate with retries, most step errors recover:
	// the run completes and some intervals keep full health.
	flaky := &fault.Plan{
		Specs: []fault.Spec{{Kind: fault.StepError, Rate: 0.3}},
		Retry: fault.RetryPolicy{MaxAttempts: 4},
	}
	res = runWithPlan(t, tr, sched.Original, flaky, 2)
	assertFinite(t, res)
	if res.Faults.StepRetries == 0 {
		t.Error("no retries recorded at rate 0.3")
	}
	healthyIntervals := 0
	for _, ir := range res.Intervals {
		if ir.DegradedCirculations == 0 {
			healthyIntervals++
		}
	}
	if healthyIntervals == 0 {
		t.Error("retries never recovered a full interval at rate 0.3")
	}
}

// A stuck sensor serves the last-good reading within the staleness bound,
// then degrades to the live value; the plant keeps dispatching finite power
// either way.
func TestSensorStuckFallback(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(20), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Stuck from interval 1 onward: interval 0 primes the last-good value,
	// intervals 1-3 serve it (MaxStale 3), interval 4+ degrade to live.
	plan := &fault.Plan{Specs: []fault.Spec{{
		Kind:     fault.SensorStuck,
		MaxStale: 3,
		Windows:  []fault.Window{{From: 1, To: 1 << 30, Unit: -1}},
	}}}
	res := runWithPlan(t, tr, sched.Original, plan, 0)
	assertFinite(t, res)
	if res.Faults.SensorFallbacks != 3 {
		t.Errorf("SensorFallbacks = %d, want 3 (MaxStale)", res.Faults.SensorFallbacks)
	}
	wantDegraded := int64(len(res.Intervals) - 4)
	if res.Faults.SensorDegraded != wantDegraded {
		t.Errorf("SensorDegraded = %d, want %d", res.Faults.SensorDegraded, wantDegraded)
	}
	for i, ir := range res.Intervals {
		if ir.TowerPower+ir.ChillerPower <= 0 {
			t.Fatalf("interval %d: plant idle under sensor fault", i)
		}
	}
}

// Pump droop lowers realized flow, which raises the outlet temperature and
// changes harvest; everything stays finite and the droop is accounted.
func TestPumpDroopPhysics(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(40), 9)
	if err != nil {
		t.Fatal(err)
	}
	base := runWithPlan(t, tr, sched.LoadBalance, nil, 0)
	plan := &fault.Plan{Specs: []fault.Spec{{
		Kind:     fault.PumpDroop,
		Severity: 0.4,
		Windows:  []fault.Window{{From: 0, To: 1 << 30, Unit: -1}},
	}}}
	res := runWithPlan(t, tr, sched.LoadBalance, plan, 0)
	assertFinite(t, res)
	if res.Faults.PumpDroops == 0 {
		t.Fatal("no droops recorded")
	}
	for i := range res.Intervals {
		b, f := base.Intervals[i], res.Intervals[i]
		if f.MeanFlow >= b.MeanFlow {
			t.Fatalf("interval %d: drooped flow %v not below commanded %v", i, f.MeanFlow, b.MeanFlow)
		}
		if f.MeanOutlet <= b.MeanOutlet {
			t.Fatalf("interval %d: drooped outlet %v not above baseline %v", i, f.MeanOutlet, b.MeanOutlet)
		}
		if f.PumpPower >= b.PumpPower {
			t.Fatalf("interval %d: drooped pump power %v not below baseline %v", i, f.PumpPower, b.PumpPower)
		}
	}
}

// A healthy circulation's outlet is its decision's PlaneOutlet, blended at
// the decided grid cell. Under pump droop the realized flow is off the grid,
// so the outlet must still be the trilinear value at that flow.
func TestPumpDroopOutletAtRealizedFlow(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(40), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, droop := range []bool{false, true} {
		cfg := smallConfig(sched.LoadBalance)
		if droop {
			cfg.Faults = &fault.Plan{Specs: []fault.Spec{{
				Kind:     fault.PumpDroop,
				Severity: 0.4,
				Windows:  []fault.Window{{From: 0, To: 1 << 30, Unit: -1}},
			}}}
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		circs := eng.circulationsRange(tr.Servers(), 0, cfg.Circulations(tr.Servers()))
		parts := make([]CirculationInterval, len(circs))
		errs := make([]error, len(circs))
		var ws workerState
		col := make([]float64, tr.Servers())
		for i := 0; i < tr.Intervals(); i++ {
			if col, err = tr.Column(i, col); err != nil {
				t.Fatal(err)
			}
			stepBlock(circs, col, i, &ws, parts, errs)
			for k, ci := range parts {
				if errs[k] != nil {
					t.Fatal(errs[k])
				}
				d := ws.decs[k]
				if ci.PumpDrooped != droop {
					t.Fatalf("droop=%v interval %d circulation %d: PumpDrooped = %v", droop, i, k, ci.PumpDrooped)
				}
				want := d.PlaneOutlet
				if droop {
					want = eng.Controller().Space.OutletTemp(d.PlaneU, ci.Flow, d.Setting.Inlet)
					if ci.Outlet == d.PlaneOutlet {
						t.Fatalf("interval %d circulation %d: drooped outlet is the commanded-flow %v", i, k, d.PlaneOutlet)
					}
				}
				if math.Float64bits(float64(ci.Outlet)) != math.Float64bits(float64(want)) {
					t.Fatalf("droop=%v interval %d circulation %d: outlet %v, want %v", droop, i, k, ci.Outlet, want)
				}
			}
		}
	}
}

// Fault activation is a pure function of coordinates, so a faulted run is
// bit-identical to the serial reference for any worker count.
func TestFaultedRunParallelDeterminism(t *testing.T) {
	tr, err := trace.Generate(trace.IrregularConfig(80), 13)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("teg-degrade:0.2:0.5,teg-open:0.05,pump-droop:0.1,sensor-stuck:0.1,step-error:0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.LoadBalance)
	cfg.Faults = plan
	cfg.FaultSeed = 99
	run := func(workers int) *Result {
		cfg.Workers = workers
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := referenceTrace(t, cfg, tr)
	parallel := run(8)
	if serial.AvgTEGPowerPerServer != parallel.AvgTEGPowerPerServer ||
		serial.PRE != parallel.PRE || serial.Faults != parallel.Faults {
		t.Fatal("faulted run differs between worker counts")
	}
	for i := range serial.Intervals {
		if serial.Intervals[i] != parallel.Intervals[i] {
			t.Fatalf("interval %d differs between worker counts", i)
		}
	}
}

func TestConfigValidateRejectsBadPlan(t *testing.T) {
	cfg := smallConfig(sched.Original)
	cfg.Faults = &fault.Plan{Specs: []fault.Spec{{Kind: "melted", Rate: 0.1}}}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid fault plan passed Config.Validate")
	}
	if _, err := NewEngine(cfg); err == nil {
		t.Error("invalid fault plan built an engine")
	}
}

// Degraded circulations are excluded from the merge denominators directly.
func TestMergeIntervalDegradedExclusion(t *testing.T) {
	col := []float64{0.5, 0.5, 0.5, 0.5}
	parts := []CirculationInterval{
		{TEGPower: 10, CPUPower: 100, Inlet: 40, Flow: 100, Outlet: 50, PumpPower: 4, TEGServers: 2},
		{Degraded: true, Retries: 2},
	}
	ir := MergeInterval(col, parts)
	if ir.DegradedCirculations != 1 || ir.StepRetries != 2 {
		t.Fatalf("accounting: %+v", ir)
	}
	if ir.MeanInlet != 40 || ir.MeanFlow != 100 || ir.MeanOutlet != 50 {
		t.Errorf("means include the degraded part: %+v", ir)
	}
	if ir.TEGPowerPerServer != 5 {
		t.Errorf("TEGPowerPerServer = %v, want 10 W / 2 healthy servers", ir.TEGPowerPerServer)
	}
	if ir.HealthyTEGServers != 2 {
		t.Errorf("HealthyTEGServers = %d", ir.HealthyTEGServers)
	}
}
