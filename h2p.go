// Package h2p is a simulator and analysis library reproducing "Heat to
// Power: Thermal Energy Harvesting and Recycling for Warm Water-Cooled
// Datacenters" (ISCA 2020).
//
// H2P mounts thermoelectric generator (TEG) modules at the coolant outlet of
// every CPU in a warm water-cooled datacenter. The hot side sees the "used"
// warm coolant (>40 °C); the cold side sees a natural water source (~20 °C);
// the Seebeck voltage across the stack is harvested and fed back to the
// facility. The library contains:
//
//   - device models for the SP 1848-27145 TEG, TEC spot coolers and the
//     Intel Xeon E5-2650 V3's power/thermal behaviour, all calibrated to the
//     paper's published measurement fits;
//   - a digital twin of the paper's hardware prototype that regenerates
//     every measurement figure (Figs. 3, 7-11);
//   - the 3-D cooling look-up space, the per-interval cooling-setting
//     optimizer and the TEG_Original / TEG_LoadBalance schedulers;
//   - a trace-driven datacenter simulation engine with synthetic Alibaba-
//     and Google-like workload generators (Figs. 14-15);
//   - the water-circulation sizing study (Sec. V-A), the TCO/PRE/ERE cost
//     analysis (Table I, Sec. V-D), and a hybrid battery/super-capacitor
//     buffer for TEG output smoothing (Sec. VI-B).
//
// # Quick start
//
//	traces, _ := h2p.GenerateTraces(1000, 42)
//	cfg := h2p.DefaultConfig(h2p.LoadBalance)
//	res, _ := h2p.Run(traces[0], cfg)
//	fmt.Printf("avg %.3f W/CPU, PRE %.1f%%\n",
//		float64(res.AvgTEGPowerPerServer), res.PRE*100)
package h2p

import (
	"context"
	"io"

	"github.com/h2p-sim/h2p/internal/circdesign"
	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/proto"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/tco"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// Re-exported quantity types. All temperatures are °C, powers W, flows L/H.
type (
	// Celsius is a temperature in degrees Celsius.
	Celsius = units.Celsius
	// Watts is a power in watts.
	Watts = units.Watts
	// LitersPerHour is a coolant volumetric flow.
	LitersPerHour = units.LitersPerHour
	// USD is an amount of money in US dollars.
	USD = units.USD
)

// Scheme selects the workload-scheduling strategy of the evaluation.
type Scheme = sched.Scheme

// The two schemes compared in the paper's Figs. 14-15.
const (
	// Original adjusts the cooling setting only (TEG_Original).
	Original = sched.Original
	// LoadBalance additionally balances load across each circulation
	// (TEG_LoadBalance).
	LoadBalance = sched.LoadBalance
)

// Config parameterizes a datacenter simulation. See DefaultConfig.
type Config = core.Config

// Result is a completed trace-driven evaluation.
type Result = core.Result

// Trace is a per-server CPU-utilization time series.
type Trace = trace.Trace

// DefaultConfig returns the paper's evaluation configuration: 25-server
// circulations, 12 TEGs per server, a 20 °C natural cold source, and the
// calibrated Xeon E5-2650 V3 model.
func DefaultConfig(scheme Scheme) Config { return core.DefaultConfig(scheme) }

// GenerateTraces returns the three synthetic evaluation workloads (drastic,
// irregular, common) for the given cluster size, deterministically seeded.
func GenerateTraces(servers int, seed int64) ([]*Trace, error) {
	return trace.GenerateAll(servers, seed)
}

// LoadTrace parses a CSV workload trace (see Trace.WriteCSV for the format;
// plain headerless matrices are also accepted). It reads r to the end and
// decodes it with the streaming reader, so quoted fields and fields over
// 64 bytes are refused.
func LoadTrace(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// LoadAlibabaTrace parses a long-format usage file in the Alibaba
// cluster-trace machine_usage layout (machine_id, time_stamp,
// cpu_util_percent, ...), bucketing observations into 5-minute intervals —
// the format of the real trace behind the paper's "drastic" workload.
func LoadAlibabaTrace(r io.Reader) (*Trace, error) {
	return trace.ReadLongFormat(r, trace.AlibabaOptions())
}

// LoadGoogleTrace parses a per-machine CPU usage table derived from the
// Google cluster traces (machine_id, timestamp, cpu_rate in [0, 1]).
func LoadGoogleTrace(r io.Reader) (*Trace, error) {
	return trace.ReadLongFormat(r, trace.GoogleOptions())
}

// Run simulates the trace under the configuration and returns the full
// per-interval and summary results.
func Run(tr *Trace, cfg Config) (*Result, error) {
	return RunContext(context.Background(), tr, cfg)
}

// RunContext simulates the trace under the configuration, partitioning the
// independent water circulations across cfg.Workers engine shards (default
// GOMAXPROCS) that step in parallel. The result is bit-identical for every
// worker count; cancelling the context aborts the run promptly.
func RunContext(ctx context.Context, tr *Trace, cfg Config) (*Result, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunContext(ctx, tr)
}

// Compare runs the same trace under both schemes (otherwise identical
// configuration) and returns (original, loadBalance). The two schemes run
// concurrently over one shared look-up space.
func Compare(tr *Trace, cfg Config) (*Result, *Result, error) {
	return core.NewFleet().CompareContext(context.Background(), tr, cfg)
}

// Fleet runs trace x scheme combinations concurrently, memoizing one
// immutable look-up space per CPU spec and sampling grid. Reuse one Fleet
// across calls to amortize the measurement-campaign fitting.
type Fleet = core.Fleet

// NewFleet returns an empty fleet.
func NewFleet() *Fleet { return core.NewFleet() }

// TCOParameters is the Table I cost model.
type TCOParameters = tco.Parameters

// TCOAnalysis is the Eq. 21/22 comparison for one scheme.
type TCOAnalysis = tco.Analysis

// FleetSummary scales the TCO analysis to a datacenter fleet.
type FleetSummary = tco.FleetSummary

// PaperTCO returns the Table I parameters ($0.13/kWh, $1 TEGs, 12 per
// server).
func PaperTCO() TCOParameters { return tco.PaperParameters() }

// CirculationDesign is the Sec. V-A circulation-sizing study configuration.
type CirculationDesign = circdesign.Config

// PaperCirculationDesign returns the Sec. V-A study defaults (1,000 servers,
// 50 L/H, COP 3.6).
func PaperCirculationDesign() CirculationDesign { return circdesign.PaperConfig() }

// Prototype is the digital twin of the paper's hardware test bed; its Run*
// methods regenerate the Sec. IV measurement figures.
type Prototype = proto.Prototype

// NewPrototype returns the calibrated Dell T7910 test bed.
func NewPrototype() *Prototype { return proto.NewDellT7910() }

// HybridBuffer is the battery + super-capacitor storage layer that smooths
// TEG output (Sec. VI-B).
type HybridBuffer = storage.HybridBuffer

// SmoothingReport summarizes a buffer smoothing run.
type SmoothingReport = storage.SmoothingReport

// NewServerBuffer returns the per-server hybrid storage buffer.
func NewServerBuffer() *HybridBuffer { return storage.NewServerBuffer() }

// TEGDevice exposes the calibrated SP 1848-27145 model.
func TEGDevice() teg.Device { return teg.SP1848() }

// CPUSpec exposes the calibrated Xeon E5-2650 V3 model.
func CPUSpec() cpu.Spec { return cpu.XeonE52650V3() }

// Evaluation bundles the full paper evaluation: per-trace results under both
// schemes plus the cost analysis.
type Evaluation struct {
	// Traces holds the evaluated workloads in drastic/irregular/common
	// order (or whatever was passed in).
	Traces []*Trace
	// Original and LoadBalance hold one result per trace.
	Original, LoadBalance []*Result
	// AvgOriginal and AvgLoadBalance are the cross-trace mean per-CPU
	// powers (the paper's 3.694 W and 4.177 W).
	AvgOriginal, AvgLoadBalance Watts
	// GainPercent is the load-balancing improvement (~13 %).
	GainPercent float64
	// TCOOriginal and TCOLoadBalance are the Sec. V-D analyses.
	TCOOriginal, TCOLoadBalance TCOAnalysis
}

// Evaluate runs the complete Sec. V evaluation over the given traces.
func Evaluate(traces []*Trace, cfg Config) (*Evaluation, error) {
	return EvaluateParallel(context.Background(), traces, cfg)
}

// EvaluateParallel runs the complete Sec. V evaluation with every trace x
// scheme combination in flight concurrently, sharing one look-up space
// across all engines. Results are bit-identical to the serial Evaluate;
// cancelling the context aborts every run.
func EvaluateParallel(ctx context.Context, traces []*Trace, cfg Config) (*Evaluation, error) {
	origs, lbs, err := core.NewFleet().EvaluateContext(ctx, traces, cfg)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Traces: traces, Original: origs, LoadBalance: lbs}
	var sumO, sumL float64
	for i := range traces {
		sumO += float64(origs[i].AvgTEGPowerPerServer)
		sumL += float64(lbs[i].AvgTEGPowerPerServer)
	}
	if n := float64(len(traces)); n > 0 {
		ev.AvgOriginal = Watts(sumO / n)
		ev.AvgLoadBalance = Watts(sumL / n)
	}
	if ev.AvgOriginal > 0 {
		ev.GainPercent = (float64(ev.AvgLoadBalance)/float64(ev.AvgOriginal) - 1) * 100
	}
	params := tco.PaperParameters()
	if ev.TCOOriginal, err = params.Analyze(ev.AvgOriginal); err != nil {
		return nil, err
	}
	if ev.TCOLoadBalance, err = params.Analyze(ev.AvgLoadBalance); err != nil {
		return nil, err
	}
	return ev, nil
}
