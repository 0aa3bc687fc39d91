package experiments

import (
	"context"
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/tco"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// EvalParams fixes the scale of the trace-driven experiments. The paper uses
// 1,000 servers; benches may shrink for speed.
type EvalParams struct {
	Servers int
	Seed    int64
	// Workers is each run's engine shard count (see core.Config.Workers).
	// 0 uses GOMAXPROCS; results are identical for any value.
	Workers int
	// Telemetry instruments every engine the experiments build (see
	// core.Config.Telemetry). nil — the default — runs uninstrumented;
	// results are bit-identical either way.
	Telemetry *telemetry.Registry
	// Faults injects the given fault plan into every engine the experiments
	// build (see core.Config.Faults). nil — the default — runs fault-free
	// with results bit-identical to a build without the fault layer.
	Faults *fault.Plan
	// FaultSeed fixes the fault activation draws (see core.Config.FaultSeed).
	FaultSeed int64
}

// Config returns the paper's default engine configuration bounded by the
// params' worker count.
func (p EvalParams) Config(scheme sched.Scheme) core.Config {
	cfg := core.DefaultConfig(scheme)
	cfg.Workers = p.Workers
	cfg.Telemetry = p.Telemetry
	cfg.Faults = p.Faults
	cfg.FaultSeed = p.FaultSeed
	return cfg
}

// canonicalRuns builds one run per canonical trace class (trace.GenerateAll's
// classes and seeds) and scheme, trace-major: class i under schemes[j] is
// run i*len(schemes)+j. Each run pulls its columns from its own generator
// source, which replays Generate's exact RNG schedule, so no trace matrix is
// ever materialized.
func canonicalRuns(p EvalParams, schemes ...sched.Scheme) ([]trace.Class, []core.SourceRun) {
	cfgs := trace.CanonicalConfigs(p.Servers)
	classes := make([]trace.Class, len(cfgs))
	runs := make([]core.SourceRun, 0, len(schemes)*len(cfgs))
	for i, cfg := range cfgs {
		classes[i] = cfg.Class
		seed := trace.CanonicalSeed(p.Seed, i)
		open := func() (trace.Source, error) { return trace.NewGeneratorSource(cfg, seed) }
		for _, scheme := range schemes {
			runs = append(runs, core.SourceRun{Open: open, Scheme: scheme})
		}
	}
	return classes, runs
}

// runComparison runs the three-trace comparison once, every trace x scheme
// combination in flight concurrently over one shared look-up space, and
// returns the trace classes with the (original, loadBalance) results in run
// order.
func runComparison(p EvalParams) ([]trace.Class, []*core.Result, []*core.Result, error) {
	classes, runs := canonicalRuns(p, sched.Original, sched.LoadBalance)
	results, err := core.NewFleet().RunSourcesContext(context.Background(), p.Config(sched.Original), runs)
	if err != nil {
		return nil, nil, nil, err
	}
	origs := make([]*core.Result, len(classes))
	lbs := make([]*core.Result, len(classes))
	for i := range classes {
		origs[i], lbs[i] = results[2*i], results[2*i+1]
	}
	return classes, origs, lbs, nil
}

// Fig14 reproduces the electricity-generation evaluation: per-trace average
// and peak per-CPU TEG power under TEG_Original and TEG_LoadBalance.
func Fig14(p EvalParams) (*Table, error) {
	classes, origs, lbs, err := runComparison(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "FIG14",
		Title:   "Generated electricity per CPU under three workload classes and two schemes",
		Columns: []string{"trace", "orig_avg_W", "orig_peak_W", "lb_avg_W", "lb_peak_W", "gain_pct"},
	}
	var sumO, sumL float64
	for i, class := range classes {
		o, l := origs[i], lbs[i]
		gain := (float64(l.AvgTEGPowerPerServer)/float64(o.AvgTEGPowerPerServer) - 1) * 100
		t.AddRow(string(class),
			fmt.Sprintf("%.3f", float64(o.AvgTEGPowerPerServer)),
			fmt.Sprintf("%.3f", float64(o.PeakTEGPowerPerServer)),
			fmt.Sprintf("%.3f", float64(l.AvgTEGPowerPerServer)),
			fmt.Sprintf("%.3f", float64(l.PeakTEGPowerPerServer)),
			fmt.Sprintf("%.2f", gain),
		)
		sumO += float64(o.AvgTEGPowerPerServer)
		sumL += float64(l.AvgTEGPowerPerServer)
	}
	n := float64(len(classes))
	t.AddRow("average",
		fmt.Sprintf("%.3f", sumO/n), "-",
		fmt.Sprintf("%.3f", sumL/n), "-",
		fmt.Sprintf("%.2f", (sumL/sumO-1)*100))
	t.Notes = append(t.Notes,
		"paper: Original 3.725/3.772/3.586 W (avg 3.694); LoadBalance 4.349/4.203/3.979 W (avg 4.177); +13.08%",
		"power is low when utilization is high: hot servers force a cold inlet")
	return t, nil
}

// Fig15 reproduces the power reusing efficiency per trace and scheme.
func Fig15(p EvalParams) (*Table, error) {
	classes, origs, lbs, err := runComparison(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "FIG15",
		Title:   "Power reusing efficiency (PRE) of TEG/CPU under three workload classes",
		Columns: []string{"trace", "orig_PRE_pct", "lb_PRE_pct"},
	}
	var sumO, sumL float64
	for i, class := range classes {
		t.AddRow(string(class),
			fmt.Sprintf("%.2f", origs[i].PRE*100),
			fmt.Sprintf("%.2f", lbs[i].PRE*100))
		sumO += origs[i].PRE
		sumL += lbs[i].PRE
	}
	n := float64(len(classes))
	t.AddRow("average", fmt.Sprintf("%.2f", sumO/n*100), fmt.Sprintf("%.2f", sumL/n*100))
	t.Notes = append(t.Notes,
		"paper: Original 12.0/13.8/11.9%; LoadBalance 13.7/16.2/12.8% (avg 14.23%)")
	return t, nil
}

// TableI reproduces the TCO analysis: the Table I entries, the Eq. 21/22
// comparison, and the Sec. V-D fleet worked example.
func TableI(p EvalParams) (*Table, error) {
	_, origs, lbs, err := runComparison(p)
	if err != nil {
		return nil, err
	}
	var avgO, avgL float64
	for i := range origs {
		avgO += float64(origs[i].AvgTEGPowerPerServer)
		avgL += float64(lbs[i].AvgTEGPowerPerServer)
	}
	avgO /= float64(len(origs))
	avgL /= float64(len(lbs))

	params := tco.PaperParameters()
	t := &Table{
		ID:      "TAB1",
		Title:   "TCO model (Table I) and Sec. V-D analysis",
		Columns: []string{"quantity", "TEG_Original", "TEG_LoadBalance", "unit"},
	}
	ao, err := params.Analyze(units.Watts(avgO))
	if err != nil {
		return nil, err
	}
	al, err := params.Analyze(units.Watts(avgL))
	if err != nil {
		return nil, err
	}
	t.AddRow("measured avg power", fmt.Sprintf("%.3f", avgO), fmt.Sprintf("%.3f", avgL), "W/CPU")
	t.AddRow("TEGRev", fmt.Sprintf("%.3f", float64(ao.TEGRev)), fmt.Sprintf("%.3f", float64(al.TEGRev)), "$/(server*month)")
	t.AddRow("TEGCapEx", "0.040", "0.040", "$/(server*month)")
	t.AddRow("TCO_noTEG", fmt.Sprintf("%.2f", float64(ao.TCONoTEG)), fmt.Sprintf("%.2f", float64(al.TCONoTEG)), "$/(server*month)")
	t.AddRow("TCO_H2P", fmt.Sprintf("%.3f", float64(ao.TCOWithH2P)), fmt.Sprintf("%.3f", float64(al.TCOWithH2P)), "$/(server*month)")
	t.AddRow("TCO reduction", fmt.Sprintf("%.3f", ao.ReductionPercent), fmt.Sprintf("%.3f", al.ReductionPercent), "%")

	fo, err := params.Fleet(units.Watts(avgO), 100000, 25)
	if err != nil {
		return nil, err
	}
	fl, err := params.Fleet(units.Watts(avgL), 100000, 25)
	if err != nil {
		return nil, err
	}
	t.AddRow("fleet daily energy", fmt.Sprintf("%.1f", float64(fo.DailyEnergy)), fmt.Sprintf("%.1f", float64(fl.DailyEnergy)), "kWh (100k CPUs)")
	t.AddRow("fleet daily revenue", fmt.Sprintf("%.1f", float64(fo.DailyRevenue)), fmt.Sprintf("%.1f", float64(fl.DailyRevenue)), "$")
	t.AddRow("break-even", fmt.Sprintf("%.0f", fo.BreakEvenDays), fmt.Sprintf("%.0f", fl.BreakEvenDays), "days")
	t.AddRow("yearly savings", fmt.Sprintf("%.0f", float64(fo.YearlySavings)), fmt.Sprintf("%.0f", float64(fl.YearlySavings)), "$ (100k CPUs)")
	t.Notes = append(t.Notes,
		"paper: reductions 0.49%/0.57%; 10,024.8 kWh/day; $1,303.2/day; 920-day break-even; $350k-$410k/year")
	return t, nil
}
