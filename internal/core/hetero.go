package core

import (
	"errors"
	"fmt"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/stats"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// HeterogeneousEngine simulates a datacenter whose circulations host
// different server SKUs — the deployment reality behind Sec. VII's claim
// that H2P "suits all types of CPUs". Each SKU gets its own calibrated
// look-up space and controller; circulations are assigned to SKUs by the
// caller's assignment function.
type HeterogeneousEngine struct {
	cfg         Config
	specs       []cpu.Spec
	controllers []*sched.Controller
	assign      func(circulation int) int
}

// NewHeterogeneousEngine builds one controller per SKU. The assignment
// function maps a circulation index to an index into specs; it must be
// deterministic.
func NewHeterogeneousEngine(cfg Config, specs []cpu.Spec, assign func(circulation int) int) (*HeterogeneousEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("core: no SKUs")
	}
	if assign == nil {
		return nil, errors.New("core: nil assignment")
	}
	e := &HeterogeneousEngine{cfg: cfg, specs: specs, assign: assign}
	for _, spec := range specs {
		space, err := lookup.Build(spec, cfg.Axes)
		if err != nil {
			return nil, err
		}
		ctl, err := newController(cfg, space)
		if err != nil {
			return nil, err
		}
		e.controllers = append(e.controllers, ctl)
	}
	return e, nil
}

// HeterogeneousResult extends the homogeneous summary with per-SKU shares.
type HeterogeneousResult struct {
	// AvgTEGPowerPerServer and PRE summarize the whole fleet.
	AvgTEGPowerPerServer units.Watts
	PRE                  float64
	// PerSKUPower and PerSKUPRE break the summary down by SKU index.
	PerSKUPower []units.Watts
	PerSKUPRE   []float64
	// Circulations counts circulations per SKU.
	Circulations []int
}

// Run evaluates the trace over the mixed fleet.
func (e *HeterogeneousEngine) Run(tr *trace.Trace) (HeterogeneousResult, error) {
	if err := tr.Validate(); err != nil {
		return HeterogeneousResult{}, err
	}
	n := e.cfg.ServersPerCirculation
	if n > tr.Servers() {
		n = tr.Servers()
	}
	k := len(e.specs)
	res := HeterogeneousResult{
		PerSKUPower:  make([]units.Watts, k),
		PerSKUPRE:    make([]float64, k),
		Circulations: make([]int, k),
	}
	tegSum := make([]float64, k)
	cpuSum := make([]float64, k)
	serverIntervals := make([]float64, k)
	col := make([]float64, tr.Servers())
	var sc sched.Scratch
	for i := 0; i < tr.Intervals(); i++ {
		var err error
		col, err = tr.Column(i, col)
		if err != nil {
			return HeterogeneousResult{}, err
		}
		circ := 0
		for lo := 0; lo < tr.Servers(); lo += n {
			hi := lo + n
			if hi > tr.Servers() {
				hi = tr.Servers()
			}
			sku := e.assign(circ)
			if sku < 0 || sku >= k {
				return HeterogeneousResult{}, fmt.Errorf("core: assignment returned SKU %d of %d", sku, k)
			}
			if i == 0 {
				res.Circulations[sku]++
			}
			ctl := e.controllers[sku]
			d, err := ctl.Decide(col[lo:hi], e.cfg.Scheme, ctl.ColdSource, &sc)
			if err != nil {
				return HeterogeneousResult{}, err
			}
			tegSum[sku] += float64(d.TotalTEGPower())
			cpuSum[sku] += float64(d.TotalCPUPower())
			serverIntervals[sku] += float64(hi - lo)
			circ++
		}
	}
	var totalTEG, totalCPU, totalSI float64
	for s := 0; s < k; s++ {
		if serverIntervals[s] > 0 {
			res.PerSKUPower[s] = units.Watts(tegSum[s] / serverIntervals[s])
		}
		if cpuSum[s] > 0 {
			res.PerSKUPRE[s] = tegSum[s] / cpuSum[s]
		}
		totalTEG += tegSum[s]
		totalCPU += cpuSum[s]
		totalSI += serverIntervals[s]
	}
	if totalSI > 0 {
		res.AvgTEGPowerPerServer = units.Watts(totalTEG / totalSI)
	}
	if totalCPU > 0 {
		res.PRE = totalTEG / totalCPU
	}
	return res, nil
}

// RoundRobinAssignment distributes circulations across k SKUs evenly.
func RoundRobinAssignment(k int) func(int) int {
	return func(circ int) int { return circ % k }
}

// WeightedMean is a reporting helper: the fleet mean of per-SKU values
// weighted by circulation counts.
func WeightedMean(values []float64, weights []int) float64 {
	var num, den float64
	for i := range values {
		if i < len(weights) {
			num += values[i] * float64(weights[i])
			den += float64(weights[i])
		}
	}
	if den == 0 {
		return stats.Mean(values)
	}
	return num / den
}
