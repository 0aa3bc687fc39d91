package experiments

import (
	"fmt"
	"math"

	"github.com/h2p-sim/h2p/internal/calib"
	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/jobs"
	"github.com/h2p-sim/h2p/internal/mppt"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/tco"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// Calibration closes the Sec. IV measurement loop: noisy samples from the
// digital twin are reduced back to the paper's published fits (Eqs. 3, 6,
// 20), verifying the calibration pipeline end-to-end.
func Calibration() (*Table, error) {
	res, err := calib.DefaultCampaign(42).Run()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "CALIB",
		Title:   "Fit recovery from noisy digital-twin measurements",
		Columns: []string{"fit", "paper", "recovered", "max_err"},
	}
	t.AddRow("Eq.3 slope (V/°C)", "0.0448", fmt.Sprintf("%.5f", res.Voltage.Slope), fmt.Sprintf("%.4f V", res.VoltageErr))
	t.AddRow("Eq.3 intercept (V)", "-0.0051", fmt.Sprintf("%.5f", res.Voltage.Intercept), "-")
	t.AddRow("Eq.6 dT^2 coeff", "0.0003", fmt.Sprintf("%.6f", res.Power.Coeffs[2]), fmt.Sprintf("%.4f W", res.PowerErr))
	t.AddRow("Eq.20 log coeff", "109.71", fmt.Sprintf("%.2f", res.CPUPower.LogCoeff), fmt.Sprintf("%.2f W", res.CPUPowerErrW))
	t.AddRow("Eq.20 offset", "-7.83", fmt.Sprintf("%.2f", res.CPUPower.Offset), fmt.Sprintf("RMSE %.2f W", res.CPUPower.RMSE))
	t.Notes = append(t.Notes,
		"the paper's quality bar — CPU power fit RMSE < 5 W — is enforced by the pipeline")
	return t, nil
}

// FutureZT projects the Sec. VI-D material roadmap: what the H2P operating
// point yields when Bi2Te3 is replaced by higher-ZT materials.
func FutureZT() (*Table, error) {
	const refHot, refCold = units.Celsius(54.5), units.Celsius(20)
	params := tco.PaperParameters()
	t := &Table{
		ID:      "FUTURE-ZT",
		Title:   "Material roadmap: per-CPU power and economics at the H2P operating point",
		Columns: []string{"material", "ZT", "efficiency_pct", "power_W", "teg_capex_$", "tco_red_pct", "breakeven_days", "commercial"},
	}
	for _, m := range []teg.Material{teg.Bi2Te3(), teg.Nanostructured(), teg.HeuslerFe2VWAl()} {
		dev, err := teg.ProjectDevice(teg.SP1848(), m, refHot, refCold)
		if err != nil {
			return nil, err
		}
		mod, err := teg.NewModule(dev, 12)
		if err != nil {
			return nil, err
		}
		power := mod.MaxPower(refHot-refCold, 200)
		p := params
		p.TEGUnitCost = m.UnitCost
		p.TEGCapEx = units.USD(float64(m.UnitCost) * 12 / (25 * 12))
		a, err := p.Analyze(power)
		if err != nil {
			return nil, err
		}
		fleet, err := p.Fleet(power, 100000, 25)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			m.Name,
			fmt.Sprintf("%.1f", m.ZT),
			fmt.Sprintf("%.2f", m.Efficiency(refHot, refCold)*100),
			fmt.Sprintf("%.3f", float64(power)),
			fmt.Sprintf("%.0f", float64(mod.Cost())),
			fmt.Sprintf("%.3f", a.ReductionPercent),
			fmt.Sprintf("%.0f", fleet.BreakEvenDays),
			fmt.Sprintf("%v", m.Commercial),
		)
	}
	t.Notes = append(t.Notes,
		"ZT~6 thin-film Heusler alloys (Hinterleitner et al. 2019) are laboratory-only; costs are projections",
		"output scales with the ideal-efficiency ratio at the operating gradient; thermal conductance kept (conservative)")
	return t, nil
}

// ReuseComparison prices the three waste-heat reuse paths of Sec. II-C
// across climates.
func ReuseComparison() (*Table, error) {
	t := &Table{
		ID:      "REUSE",
		Title:   "Waste-heat reuse paths by climate (annual $ per server, 1,000-server site)",
		Columns: []string{"climate", "path", "capex_$", "revenue_$", "net_$", "payback_y", "feasible"},
	}
	for _, cl := range []heatreuse.Climate{heatreuse.HighLatitude(), heatreuse.Temperate(), heatreuse.Tropical()} {
		outs, err := heatreuse.Compare(heatreuse.DefaultSite(cl), 4.177)
		if err != nil {
			return nil, err
		}
		stacked, err := heatreuse.Stacked(heatreuse.DefaultSite(cl), 4.177, 150, 12)
		if err != nil {
			return nil, err
		}
		outs = append(outs, stacked)
		for _, o := range outs {
			payback := "-"
			if !math.IsInf(o.PaybackYears, 1) {
				payback = fmt.Sprintf("%.1f", o.PaybackYears)
			}
			t.AddRow(cl.Name, o.Path,
				fmt.Sprintf("%.0f", float64(o.CapExPerServer)),
				fmt.Sprintf("%.2f", float64(o.AnnualRevenuePerServer)),
				fmt.Sprintf("%.2f", float64(o.AnnualNetPerServer)),
				payback,
				fmt.Sprintf("%v", o.Feasible))
		}
	}
	t.Notes = append(t.Notes,
		"H2P earns year-round at tiny capital; district heating dominates only where winters are long",
		"CCHP needs plant scale (>=5k servers here) and heavy capital (Sec. II-C)",
		"the stacked TEG+DH path combines both revenues: harvesting first costs the heat sale ~1.5°C of grade")
	return t, nil
}

// MPPTTracking evaluates the perturb-and-observe harvesting front-end over a
// diurnal gradient swing.
func MPPTTracking() (*Table, error) {
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		return nil, err
	}
	var dTs []units.Celsius
	for i := 0; i < 288; i++ {
		phase := 2 * math.Pi * float64(i) / 288
		dTs = append(dTs, units.Celsius(32+4*math.Cos(phase)))
	}
	t := &Table{
		ID:      "MPPT",
		Title:   "P&O maximum power point tracking over a diurnal 28-36 °C gradient swing",
		Columns: []string{"perturb_step_pct", "tracking_eff_pct", "delivered_Wh", "ideal_Wh", "final_load_ohm"},
	}
	for _, step := range []float64{0.02, 0.05, 0.10, 0.20} {
		tr, err := mppt.NewTracker(mod, mppt.DefaultConverter(), step)
		if err != nil {
			return nil, err
		}
		rep, err := tr.Track(dTs, 200, float64(5)/60, 10)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f", step*100),
			fmt.Sprintf("%.2f", rep.TrackingEfficiency*100),
			fmt.Sprintf("%.2f", rep.DeliveredWh),
			fmt.Sprintf("%.2f", rep.IdealWh),
			fmt.Sprintf("%.1f", float64(tr.Load())),
		)
	}
	t.Notes = append(t.Notes,
		"maximum output power occurs at the matched load (Sec. III-C); P&O finds it without knowing the module resistance",
		"small steps track tightly; large steps oscillate around the optimum")
	return t, nil
}

// JobMigration quantifies how much of the ideal TEG_LoadBalance gain a
// migration-budgeted job scheduler captures.
func JobMigration(p EvalParams) (*Table, error) {
	tr, err := trace.Generate(trace.DrasticConfig(p.Servers), p.Seed)
	if err != nil {
		return nil, err
	}
	fleet := core.NewFleet()
	engOrig, err := fleet.Engine(p.Config(sched.Original))
	if err != nil {
		return nil, err
	}
	orig, err := engOrig.Run(tr)
	if err != nil {
		return nil, err
	}
	engLB, err := fleet.Engine(p.Config(sched.LoadBalance))
	if err != nil {
		return nil, err
	}
	ideal, err := engLB.Run(tr)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "JOBS",
		Title:   "Constrained job migration vs ideal workload balancing (drastic trace)",
		Columns: []string{"scheduler", "budget/interval", "migrations", "mean_dispersion", "avg_W", "gain_captured_pct"},
	}
	idealGain := float64(ideal.AvgTEGPowerPerServer - orig.AvgTEGPowerPerServer)
	t.AddRow("TEG_Original", "-", "0", "-", fmt.Sprintf("%.3f", float64(orig.AvgTEGPowerPerServer)), "0.0")
	engO, err := fleet.Engine(p.Config(sched.Original))
	if err != nil {
		return nil, err
	}
	for _, budget := range []int{1, 5, 20, 100} {
		balanced, rep, err := jobs.BalancedTrace(tr, 0.08, budget, p.Seed)
		if err != nil {
			return nil, err
		}
		// The balanced trace is then cooled under Original control
		// (the balancing already happened at the job layer).
		res, err := engO.Run(balanced)
		if err != nil {
			return nil, err
		}
		captured := 0.0
		if idealGain > 0 {
			captured = float64(res.AvgTEGPowerPerServer-orig.AvgTEGPowerPerServer) / idealGain * 100
		}
		t.AddRow(
			"job migration",
			fmt.Sprintf("%d", budget),
			fmt.Sprintf("%d", rep.TotalMigrations),
			fmt.Sprintf("%.3f", rep.MeanDispersionAfter),
			fmt.Sprintf("%.3f", float64(res.AvgTEGPowerPerServer)),
			fmt.Sprintf("%.1f", captured),
		)
	}
	t.AddRow("TEG_LoadBalance (ideal)", "-", "-", "0.000",
		fmt.Sprintf("%.3f", float64(ideal.AvgTEGPowerPerServer)), "100.0")
	t.Notes = append(t.Notes,
		"a modest per-circulation migration budget captures most of the ideal balancing gain")
	return t, nil
}
