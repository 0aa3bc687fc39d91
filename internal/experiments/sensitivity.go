package experiments

import (
	"context"
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/hotspot"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/tco"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// HotSpot reproduces the transient that motivates the hybrid architecture:
// a 20 % -> 100 % utilization step under a warm inlet, with and without a
// TEG-assisted TEC guard, at both the H2P operating point and the legacy
// low-flow danger zone of Sec. II-B.
func HotSpot() (*Table, error) {
	t := &Table{
		ID:      "HOTSPOT",
		Title:   "Utilization-step transient: TEC guard with TEG power assist",
		Columns: []string{"setting", "tec", "peak_C", "settle_C", "s_above_safe", "s_above_max", "tec_J", "teg_covered_pct"},
	}
	run := func(label string, mut func(*hotspot.Scenario), withTEC bool) error {
		s := hotspot.DefaultScenario(withTEC)
		if mut != nil {
			mut(&s)
		}
		out, err := s.Run()
		if err != nil {
			return err
		}
		covered := "-"
		if out.TECEnergy > 0 {
			covered = fmt.Sprintf("%.1f", float64(out.TEGCoveredEnergy)/float64(out.TECEnergy)*100)
		}
		t.AddRow(label, fmt.Sprintf("%v", withTEC),
			fmt.Sprintf("%.2f", float64(out.PeakTemp)),
			fmt.Sprintf("%.2f", float64(out.SettleTemp)),
			fmt.Sprintf("%.1f", out.SecondsAboveSafe),
			fmt.Sprintf("%.1f", out.SecondsAboveMax),
			fmt.Sprintf("%.0f", float64(out.TECEnergy)),
			covered)
		return nil
	}
	legacy := func(s *hotspot.Scenario) { s.Flow = 20; s.Inlet = 50 }
	if err := run("H2P (250 L/H, 53.5°C)", nil, false); err != nil {
		return nil, err
	}
	if err := run("H2P (250 L/H, 53.5°C)", nil, true); err != nil {
		return nil, err
	}
	if err := run("legacy (20 L/H, 50°C)", legacy, false); err != nil {
		return nil, err
	}
	if err := run("legacy (20 L/H, 50°C)", legacy, true); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"without the TEC the die rides above T_safe for the whole interval; the guard holds it at the target",
		"at the legacy 20 L/H / 50 °C point the unguarded step exceeds the 78.9 °C vendor limit (Sec. II-B)")
	return t, nil
}

// QuasiStaticValidation replays sampled control intervals through a
// transient RC model and reports how far the engine's per-interval
// steady-state assumption drifts from the transient truth.
func QuasiStaticValidation(p EvalParams) (*Table, error) {
	t := &Table{
		ID:      "QS-VALID",
		Title:   "Quasi-static assumption vs transient RC replay (first circulation)",
		Columns: []string{"trace", "scheme", "intervals", "end_err_C", "mid_excursion_C", "max_temp_C"},
	}
	traces, err := trace.GenerateAll(p.Servers, p.Seed)
	if err != nil {
		return nil, err
	}
	fleet := core.NewFleet()
	for _, tr := range traces {
		for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
			eng, err := fleet.Engine(p.Config(scheme))
			if err != nil {
				return nil, err
			}
			rep, err := eng.ValidateQuasiStatic(tr, 48)
			if err != nil {
				return nil, err
			}
			t.AddRow(string(tr.Class), string(scheme),
				fmt.Sprintf("%d", rep.IntervalsChecked),
				fmt.Sprintf("%.3f", float64(rep.MaxEndOfIntervalError)),
				fmt.Sprintf("%.3f", float64(rep.MaxMidIntervalExcursion)),
				fmt.Sprintf("%.2f", float64(rep.MaxTempSeen)))
		}
	}
	t.Notes = append(t.Notes,
		"the ~30 s die RC constant settles well inside the 5-minute control interval,",
		"so the quasi-static engine reads end-of-interval temperatures accurate to a fraction of a degree")
	return t, nil
}

// SensitivityColdSource sweeps the TEG cold-side water temperature — the
// seasonal swing of a natural source — and reports the harvested power and
// PRE under load balancing.
func SensitivityColdSource(p EvalParams) (*Table, error) {
	tr, err := trace.Generate(trace.CommonConfig(p.Servers), p.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "SENS-COLD",
		Title:   "Sensitivity: natural cold-source temperature (common trace, LoadBalance)",
		Columns: []string{"cold_source_C", "avg_W", "PRE_pct"},
	}
	fleet := core.NewFleet()
	for _, cold := range []units.Celsius{15, 17.5, 20, 22.5, 25} {
		cfg := p.Config(sched.LoadBalance)
		cfg.ColdSource = cold
		eng, err := fleet.Engine(cfg)
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(tr)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", float64(cold)),
			fmt.Sprintf("%.3f", float64(res.AvgTEGPowerPerServer)),
			fmt.Sprintf("%.2f", res.PRE*100))
	}
	t.Notes = append(t.Notes,
		"deep-lake sources (Qiandao: 15-20 °C year-round) keep the gradient, hence the harvest, stable",
		"every extra degree of cold-source warmth costs ~6% of harvested power (quadratic Eq. 7)")
	return t, nil
}

// SensitivityPrice sweeps the electricity tariff and reports the TCO
// reduction and break-even of the LoadBalance operating point.
func SensitivityPrice() (*Table, error) {
	t := &Table{
		ID:      "SENS-PRICE",
		Title:   "Sensitivity: electricity price vs TCO reduction and break-even (4.177 W/CPU)",
		Columns: []string{"price_$per_kWh", "tegrev_$", "tco_red_pct", "breakeven_days", "yearly_savings_$100k"},
	}
	for _, price := range []float64{0.05, 0.08, 0.13, 0.20, 0.30} {
		params := tco.PaperParameters()
		params.ElectricityPrice = units.USD(price)
		a, err := params.Analyze(4.177)
		if err != nil {
			return nil, err
		}
		fleet, err := params.Fleet(4.177, 100000, 25)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", price),
			fmt.Sprintf("%.3f", float64(a.TEGRev)),
			fmt.Sprintf("%.3f", a.ReductionPercent),
			fmt.Sprintf("%.0f", fleet.BreakEvenDays),
			fmt.Sprintf("%.0f", float64(fleet.YearlySavings)))
	}
	t.Notes = append(t.Notes,
		"the paper's $0.13/kWh gives the published 0.57%/920-day point; cheap power doubles the payback")
	return t, nil
}

// SensitivityCirculationSize sweeps the number of servers per circulation
// and reports the harvested power under both schemes — connecting the
// Sec. V-A design study to the Sec. V-C evaluation.
func SensitivityCirculationSize(p EvalParams) (*Table, error) {
	tr, err := trace.Generate(trace.DrasticConfig(p.Servers), p.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "SENS-CIRC",
		Title:   "Sensitivity: circulation size vs harvested power (drastic trace)",
		Columns: []string{"servers_per_circ", "orig_avg_W", "lb_avg_W", "gain_pct"},
	}
	fleet := core.NewFleet()
	for _, n := range []int{1, 5, 10, 25, 50, 100} {
		if n > p.Servers {
			continue
		}
		cfg := p.Config(sched.Original)
		cfg.ServersPerCirculation = n
		o, l, err := fleet.CompareContext(context.Background(), tr, cfg)
		if err != nil {
			return nil, err
		}
		gain := (float64(l.AvgTEGPowerPerServer)/float64(o.AvgTEGPowerPerServer) - 1) * 100
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", float64(o.AvgTEGPowerPerServer)),
			fmt.Sprintf("%.3f", float64(l.AvgTEGPowerPerServer)),
			fmt.Sprintf("%.2f", gain))
	}
	t.Notes = append(t.Notes,
		"per-server circulations need no balancing (the gain vanishes at n=1); sharing makes balancing pay",
		"under Original the harvest falls as circulations grow — the hottest sharer sets everyone's inlet")
	return t, nil
}
