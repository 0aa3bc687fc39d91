package h2p

// End-to-end integration tests: each test walks a full user-facing workflow
// across several subsystems through the public API (plus internal packages
// where the workflow's plumbing lives), asserting the cross-module
// invariants that no single package test can see.

import (
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/calib"
	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/mppt"
	"github.com/h2p-sim/h2p/internal/proto"
	"github.com/h2p-sim/h2p/internal/tco"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/units"
)

// TestEndToEndEnergyChain follows one day of harvested energy through the
// whole chain: trace -> engine -> MPPT front-end -> storage buffer -> LED
// load, checking energy conservation at every hand-off.
func TestEndToEndEnergyChain(t *testing.T) {
	traces, err := GenerateTraces(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(LoadBalance)
	res, err := Run(traces[2], cfg) // common trace, 24 h
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct the per-interval module gradient from the engine's
	// reported means and drive the MPPT front-end with it.
	mod, err := teg.NewModule(teg.SP1848(), cfg.TEGsPerServer)
	if err != nil {
		t.Fatal(err)
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	var dTs []units.Celsius
	for _, ir := range res.Intervals {
		// Invert Eq. 7 from the engine's per-server power to the
		// gradient the module saw.
		p := float64(ir.TEGPowerPerServer) / float64(cfg.TEGsPerServer)
		// 0.0003 dT^2 - 0.0003 dT + (0.0011 - p) = 0.
		disc := 0.0003*0.0003 - 4*0.0003*(0.0011-p)
		dT := (0.0003 + math.Sqrt(disc)) / (2 * 0.0003)
		dTs = append(dTs, units.Celsius(dT))
	}
	tracker, err := mppt.NewTracker(mod, mppt.DefaultConverter(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracker.Track(dTs, 200, res.Interval.Hours(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrackingEfficiency < 0.95 {
		t.Errorf("tracking efficiency %v", rep.TrackingEfficiency)
	}
	// The converter output cannot exceed the raw engine-side energy.
	engineWh := float64(res.TEGEnergy) * 1000 / float64(res.Servers) // per server
	if rep.DeliveredWh > engineWh*1.02 {
		t.Errorf("MPPT delivered %v Wh exceeds engine-side %v Wh", rep.DeliveredWh, engineWh)
	}

	// Smooth the delivered power against an LED load.
	buf := NewServerBuffer()
	var gen []Watts
	for _, dT := range dTs {
		gen = append(gen, Watts(float64(mod.MaxPowerPhysics(dT, 200))*0.95))
	}
	srep, err := buf.Smooth(gen, 3.0, res.Interval.Hours())
	if err != nil {
		t.Fatal(err)
	}
	if srep.CoverageRatio < 0.99 {
		t.Errorf("LED coverage %v", srep.CoverageRatio)
	}
	// Conservation: delivered + spilled + still-stored <= generated.
	if srep.DeliveredWh+srep.SpilledWh > srep.GeneratedWh+buf.StoredWh()+1e-6 {
		t.Error("storage chain created energy")
	}
}

// TestPrototypeToModelCalibrationLoop regenerates the paper's own workflow:
// run the measurement campaigns on the digital twin, fit the results, and
// verify the fits reproduce the constants the simulator runs on.
func TestPrototypeToModelCalibrationLoop(t *testing.T) {
	p := proto.NewDellT7910()

	// Fig. 7 samples at the reference condition -> Eq. 3.
	var dts []units.Celsius
	for dt := 1.0; dt <= 25; dt += 1 {
		dts = append(dts, units.Celsius(dt))
	}
	series, err := p.RunFig8([]int{1}, dts)
	if err != nil {
		t.Fatal(err)
	}
	var vs []calib.VoltageSample
	var ps []calib.PowerSample
	for i, dt := range dts {
		vs = append(vs, calib.VoltageSample{DeltaT: dt, Voltage: series[0].Voltage[i].Voltage})
		ps = append(ps, calib.PowerSample{DeltaT: dt, Power: series[0].Power[i].Power})
	}
	vfit, err := calib.TEGVoltageFit(vs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vfit.Slope-0.0448) > 1e-6 {
		t.Errorf("recovered Eq.3 slope %v", vfit.Slope)
	}
	pfit, err := calib.TEGPowerFit(ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pfit.Coeffs[2]-0.0003) > 1e-9 {
		t.Errorf("recovered Eq.6 quadratic %v", pfit.Coeffs[2])
	}

	// Fig. 10 samples -> Eq. 20.
	var cs []calib.CPUPowerSample
	spec := cpu.XeonE52650V3()
	for u := 0.0; u <= 1.0; u += 0.05 {
		cs = append(cs, calib.CPUPowerSample{Utilization: u, Power: spec.Power(u)})
	}
	cfit, err := calib.FitCPUPower(cs, spec.PowerLogShift)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cfit.LogCoeff-spec.PowerLogCoeff) > 1e-6 {
		t.Errorf("recovered Eq.20 coefficient %v", cfit.LogCoeff)
	}
	if err := cfit.Validate(); err != nil {
		t.Error(err)
	}
}

// TestFacilityLevelEREWithH2P feeds a whole run's energy ledger into the
// Green Grid metrics, with the harvested TEG energy as the reused term, and
// checks that reuse pulls ERE below a plausible PUE.
func TestFacilityLevelEREWithH2P(t *testing.T) {
	traces, err := GenerateTraces(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(traces[2], DefaultConfig(LoadBalance))
	if err != nil {
		t.Fatal(err)
	}
	in := tco.EREInput{IT: res.CPUEnergy, Cooling: res.PlantEnergy, Reuse: res.TEGEnergy}
	pue, err := tco.PUE(in)
	if err != nil {
		t.Fatal(err)
	}
	ere, err := tco.ERE(in)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PUE %.3f, ERE %.3f", pue, ere)
	if ere >= pue {
		t.Errorf("TEG reuse must pull ERE (%v) below PUE (%v)", ere, pue)
	}
	if pue < 1.03 || pue > 1.5 {
		t.Errorf("PUE = %v implausible", pue)
	}
}

// TestEvaluationConsistentWithComponents cross-checks the top-level Evaluate
// against manually assembled component calls.
func TestEvaluationConsistentWithComponents(t *testing.T) {
	traces, err := GenerateTraces(80, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Original)
	cfg.ServersPerCirculation = 20
	ev, err := Evaluate(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		o, l, err := Compare(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o.AvgTEGPowerPerServer != ev.Original[i].AvgTEGPowerPerServer {
			t.Errorf("trace %d: Evaluate Original diverges from Compare", i)
		}
		if l.PRE != ev.LoadBalance[i].PRE {
			t.Errorf("trace %d: Evaluate LoadBalance diverges from Compare", i)
		}
	}
	// TCO revenue consistent with the analysis formula.
	rev := PaperTCO().TEGRevenuePerServerMonth(ev.AvgLoadBalance)
	if math.Abs(float64(rev-ev.TCOLoadBalance.TEGRev)) > 1e-12 {
		t.Error("Evaluate TCO diverges from direct analysis")
	}
}
