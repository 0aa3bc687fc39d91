package experiments

import (
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/tec"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// AblationFlow quantifies the "high flow unlocks warm inlets" design choice:
// the cooling optimizer with full flow freedom versus pinned to the
// prototype's 20 L/H, including the pump power each choice costs.
func AblationFlow() (*Table, error) {
	freeCfg := core.DefaultConfig(sched.LoadBalance)
	freeCtl, err := controller(freeCfg)
	if err != nil {
		return nil, err
	}
	pinnedCfg := freeCfg
	pinnedCfg.Axes.Flow = []float64{20, 21} // degenerate band around the prototype flow
	pinnedCtl, err := controller(pinnedCfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ABL-FLOW",
		Title:   "Ablation: flow freedom in the cooling optimizer (per-CPU TEG power and pump cost)",
		Columns: []string{"utilization", "free_flow_LH", "free_inlet_C", "free_W", "free_pump_W", "free_net_W", "pinned_inlet_C", "pinned_W", "pinned_pump_W", "pinned_net_W"},
	}
	pumpPower := func(flow units.LitersPerHour) units.Watts {
		p := hydro.Pump{Name: "srv", MaxFlow: freeCfg.PumpMaxFlow, RatedPower: freeCfg.PumpRatedPower}
		if flow > p.MaxFlow {
			flow = p.MaxFlow
		}
		if err := p.SetFlow(flow); err != nil {
			return 0
		}
		return p.Power()
	}
	for _, u := range numeric.Linspace(0.1, 0.9, 5) {
		fs, fp, err := freeCtl.Choose(u, freeCtl.ColdSource)
		if err != nil {
			return nil, err
		}
		ps, pp, err := pinnedCtl.Choose(u, pinnedCtl.ColdSource)
		if err != nil {
			return nil, err
		}
		fPump := pumpPower(fs.Flow)
		pPump := pumpPower(ps.Flow)
		t.AddRow(
			fmt.Sprintf("%.2f", u),
			fmt.Sprintf("%.0f", float64(fs.Flow)),
			fmt.Sprintf("%.1f", float64(fs.Inlet)),
			fmt.Sprintf("%.3f", float64(fp)),
			fmt.Sprintf("%.3f", float64(fPump)),
			fmt.Sprintf("%.3f", float64(fp-fPump)),
			fmt.Sprintf("%.1f", float64(ps.Inlet)),
			fmt.Sprintf("%.3f", float64(pp)),
			fmt.Sprintf("%.3f", float64(pPump)),
			fmt.Sprintf("%.3f", float64(pp-pPump)),
		)
	}
	t.Notes = append(t.Notes,
		"high flow lowers both k(f) and R_th(f), admitting a far warmer inlet at the same die target",
		"even after paying cubic-law pump power, flow freedom wins at every utilization")
	return t, nil
}

// AblationStorage compares storage configurations smoothing one server's
// TEG output against a constant LED-lighting load (Secs. VI-B and VI-C2).
func AblationStorage() (*Table, error) {
	// Build a representative diurnal generation series from the common
	// trace under load balancing at small scale: one 50-server circulation.
	tr, err := trace.Generate(trace.CommonConfig(50), 42)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(sched.LoadBalance)
	cfg.ServersPerCirculation = 50
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(tr)
	if err != nil {
		return nil, err
	}
	gen := make([]units.Watts, len(res.Intervals))
	for i, ir := range res.Intervals {
		gen[i] = ir.TEGPowerPerServer
	}

	const demand = 3.8 // W: a cluster of high-power LEDs per server position
	dt := tr.Interval.Hours()
	configs := []struct {
		name string
		buf  *storage.HybridBuffer
	}{
		{"hybrid (SC+battery)", storage.NewServerBuffer()},
		{"battery only", &storage.HybridBuffer{SC: mustElement(0.001, 0.001, 0.001, 0.93), Battery: storage.ServerBattery()}},
		{"supercap only", &storage.HybridBuffer{SC: storage.ServerSuperCap(), Battery: mustElement(0.001, 0.001, 0.001, 0.80)}},
	}
	t := &Table{
		ID:      "ABL-STORE",
		Title:   "Ablation: storage configuration smoothing TEG output against a 3.8 W LED load",
		Columns: []string{"config", "coverage_pct", "unmet_intervals", "spilled_Wh", "delivered_Wh"},
	}
	for _, c := range configs {
		rep, err := c.buf.Smooth(gen, demand, dt)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name,
			fmt.Sprintf("%.2f", rep.CoverageRatio*100),
			fmt.Sprintf("%d", rep.UnmetIntervals),
			fmt.Sprintf("%.2f", rep.SpilledWh),
			fmt.Sprintf("%.2f", rep.DeliveredWh),
		)
	}
	t.Notes = append(t.Notes,
		"the hybrid buffer pairs the SC's 93% round-trip efficiency with the battery's capacity (Sec. VI-B)")
	return t, nil
}

// mustElement builds a degenerate (effectively absent) storage element.
func mustElement(capWh, chg, dis, eff float64) *storage.Element {
	e, err := storage.NewElement("stub", capWh, chg, dis, eff)
	if err != nil {
		panic(err)
	}
	return e
}

// AblationTEC evaluates TEGs powering TECs during hot-spot episodes
// (Sec. VI-C1): episode severity versus the fraction of TEC input power the
// server's own TEG module covers.
func AblationTEC() (*Table, error) {
	h := tec.HybridSpotCooling{Device: tec.TypicalCPU(), Flow: 230}
	const tegPower = 4.18 // the paper's average harvested power
	t := &Table{
		ID:      "ABL-TEC",
		Title:   "Ablation: TEGs powering TECs during hot-spot episodes (4.18 W TEG budget)",
		Columns: []string{"spot_heat_W", "tec_current_A", "tec_input_W", "tec_cop", "outlet_rise_C", "teg_coverage_pct"},
	}
	for _, spot := range []units.Watts{10, 20, 30, 40, 50} {
		res, err := h.Episode(spot, 58, 52, tegPower)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f", float64(spot)),
			fmt.Sprintf("%.2f", res.Operation.Current),
			fmt.Sprintf("%.2f", float64(res.Operation.InputPower)),
			fmt.Sprintf("%.2f", res.Operation.COP),
			fmt.Sprintf("%.3f", float64(res.OutletRise)),
			fmt.Sprintf("%.1f", res.TEGCoverage*100),
		)
	}
	t.Notes = append(t.Notes,
		"mild episodes are fully TEG-powered; heavy ones are partially covered",
		"the TEC's rejected heat warms the outlet, which further helps the TEG (Sec. VI-C1)")
	return t, nil
}
