package experiments

import (
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/stats"
)

// Fig12 reproduces the 3-D measurement space: the discrete (utilization,
// flow, inlet) -> T_CPU point cloud and the fidelity of its continuous fit.
func Fig12() (*Table, error) {
	space, err := lookup.Build(cpu.XeonE52650V3(), lookup.DefaultAxes())
	if err != nil {
		return nil, err
	}
	pts := space.GridPoints()
	t := &Table{
		ID:      "FIG12",
		Title:   "The 3-D discrete measurement space of CPU temperature",
		Columns: []string{"utilization", "flow_LH", "inlet_C", "cpu_temp_C", "outlet_C"},
	}
	// Emit a decimated cloud (every 97th point) so the table stays
	// readable; the full grid backs the continuous space.
	for i := 0; i < len(pts); i += 97 {
		p := pts[i]
		t.AddRow(
			fmt.Sprintf("%.2f", p.Utilization),
			fmt.Sprintf("%.0f", float64(p.Flow)),
			fmt.Sprintf("%.1f", float64(p.Inlet)),
			fmt.Sprintf("%.2f", float64(p.CPUTemp)),
			fmt.Sprintf("%.2f", float64(p.Outlet)),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("grid: %d measurement points; trilinear fit error %.3f°C over a refined probe grid",
			len(pts), float64(space.FitError(9))),
		"darker (hotter) points concentrate at high utilization, low flow and warm inlet, as in the paper")
	return t, nil
}

// Fig13 reproduces the safety-slab selection: candidate cooling settings
// with T_CPU within [61, 63] °C on the U_max plane versus the U_avg plane.
func Fig13() (*Table, error) {
	ctl, err := controller(core.DefaultConfig(sched.LoadBalance))
	if err != nil {
		return nil, err
	}
	const uMax, uAvg = 0.6, 0.25
	t := &Table{
		ID:      "FIG13",
		Title:   "Safety slab T_CPU in [61,63]°C: A_max (u=0.60) vs A_avg (u=0.25) candidates",
		Columns: []string{"plane", "count", "min_inlet_C", "max_inlet_C", "mean_inlet_C", "best_flow_LH", "best_inlet_C", "best_power_W"},
	}
	for _, pl := range []struct {
		name string
		u    float64
	}{{"A_max", uMax}, {"A_avg", uAvg}} {
		cands, err := ctl.Space.PlaneIntersection(pl.u, ctl.TSafe, ctl.Band)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("experiments: empty slab on plane %v", pl.u)
		}
		var inlets []float64
		for _, c := range cands {
			inlets = append(inlets, float64(c.Inlet))
		}
		sum, err := stats.Describe(inlets)
		if err != nil {
			return nil, err
		}
		setting, power, err := ctl.Choose(pl.u, ctl.ColdSource)
		if err != nil {
			return nil, err
		}
		t.AddRow(pl.name,
			fmt.Sprintf("%d", len(cands)),
			fmt.Sprintf("%.1f", sum.Min),
			fmt.Sprintf("%.1f", sum.Max),
			fmt.Sprintf("%.2f", sum.Mean),
			fmt.Sprintf("%.0f", float64(setting.Flow)),
			fmt.Sprintf("%.1f", float64(setting.Inlet)),
			fmt.Sprintf("%.3f", float64(power)),
		)
	}
	t.Notes = append(t.Notes,
		"the A_avg plane admits generally warmer inlets than A_max, so balancing raises TEG power")
	return t, nil
}

// controller returns the cooling controller of an engine built for cfg: the
// same module stack, cold source and decision quantum every trace-driven run
// decides with.
func controller(cfg core.Config) (*sched.Controller, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.Controller(), nil
}
