package experiments

import (
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/tco"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// SKUGenerality backs the Sec. VII claim that "H2P suits all types of
// CPUs": the same architecture and optimizer, recalibrated to three server
// SKUs spanning 45-120 W TDP, all harvest meaningfully.
func SKUGenerality(p EvalParams) (*Table, error) {
	tr, err := trace.Generate(trace.CommonConfig(p.Servers), p.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "SKUS",
		Title:   "SKU generality: the H2P pipeline on three server classes (common trace, LoadBalance)",
		Columns: []string{"cpu", "full_load_W", "t_safe_C", "avg_teg_W", "PRE_pct", "tco_red_pct"},
	}
	params := tco.PaperParameters()
	addRow := func(label, fullLoad, tSafe string, avg units.Watts, pre float64) error {
		a, err := params.Analyze(avg)
		if err != nil {
			return err
		}
		t.AddRow(label, fullLoad, tSafe,
			fmt.Sprintf("%.3f", float64(avg)),
			fmt.Sprintf("%.2f", pre*100),
			fmt.Sprintf("%.3f", a.ReductionPercent))
		return nil
	}
	fleet := core.NewFleet()
	base := p.Config(sched.LoadBalance)
	run := func(spec cpu.Spec, tr *trace.Trace) (*core.Result, error) {
		cfg := base
		cfg.Spec = spec
		eng, err := fleet.Engine(cfg)
		if err != nil {
			return nil, err
		}
		return eng.Run(tr)
	}
	specs := []cpu.Spec{cpu.XeonD1540(), cpu.XeonE52650V3(), cpu.XeonE52680V4()}
	for _, spec := range specs {
		res, err := run(spec, tr)
		if err != nil {
			return nil, err
		}
		if err := addRow(spec.Model,
			fmt.Sprintf("%.1f", float64(spec.Power(1))),
			fmt.Sprintf("%.0f", float64(spec.SafeTemp)),
			res.AvgTEGPowerPerServer, res.PRE); err != nil {
			return nil, err
		}
	}
	// Mixed fleet: the three SKUs round-robined across circulations of the
	// same datacenter. Each SKU's circulations form a sub-datacenter run on
	// that SKU's engine; the fleet sums their energies.
	var weighted float64
	var tegEnergy, cpuEnergy units.KilowattHours
	for k, sub := range skuSubTraces(tr, base, len(specs)) {
		if sub == nil {
			continue
		}
		res, err := run(specs[k], sub)
		if err != nil {
			return nil, err
		}
		weighted += float64(res.AvgTEGPowerPerServer) * float64(sub.Servers())
		tegEnergy += res.TEGEnergy
		cpuEnergy += res.CPUEnergy
	}
	var pre float64
	if cpuEnergy > 0 {
		pre = float64(tegEnergy) / float64(cpuEnergy)
	}
	if err := addRow("mixed fleet (1/3 each)", "-", "-",
		units.Watts(weighted/float64(tr.Servers())), pre); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"unlike CPU-mounted TEG schemes, the outlet-mounted module needs no per-SKU integration (Sec. VII)",
		"low-TDP SKUs yield higher PRE: the harvest depends on the inlet headroom, not the CPU's draw",
		"the mixed fleet runs one calibrated controller per SKU; fleet PRE lands between the SKU extremes")
	return t, nil
}

// skuSubTraces splits tr's circulations round-robin across k SKUs: sub-trace
// j holds the servers of circulations c ≡ j (mod k), in circulation order,
// and is nil when no circulation falls to SKU j. Only the datacenter's last
// circulation can be short, and it is also the last of its sub-trace, so
// each sub-trace forms exactly the circulations it was cut from.
func skuSubTraces(tr *trace.Trace, cfg core.Config, k int) []*trace.Trace {
	subs := make([]*trace.Trace, k)
	for c := 0; c < cfg.Circulations(tr.Servers()); c++ {
		lo, hi := cfg.CirculationSpan(tr.Servers(), c)
		sub := subs[c%k]
		if sub == nil {
			sub = &trace.Trace{Name: fmt.Sprintf("%s[sku %d]", tr.Name, c%k), Class: tr.Class, Interval: tr.Interval}
			subs[c%k] = sub
		}
		sub.U = append(sub.U, tr.U[lo:hi]...)
	}
	return subs
}
