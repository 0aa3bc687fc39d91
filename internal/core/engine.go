// Package core is the H2P engine: it ties the TEG modules, the CPU thermal
// model, the look-up-space cooling controller and the workload schedulers
// into a trace-driven, time-stepped simulation of a warm water-cooled
// datacenter (the evaluation of Sec. V-C).
//
// A datacenter of S servers is partitioned into water circulations of n
// servers sharing one CDU, pump and cooling setting. Every control interval
// (5 minutes in the paper) each circulation reads its servers' utilizations,
// optionally balances the load, picks the cooling setting from the look-up
// space, and harvests TEG power from every server's outlet.
//
// The engine is layered for scale:
//
//   - Circulation (circulation.go) owns one water circulation's servers,
//     pump, scheme decision and plant dispatch; circulations are
//     independent within an interval.
//   - Engine drives the interval loop (stream.go, RunSourceContext): a
//     decoder pulls trace columns from a trace.Source one interval ahead,
//     Config.Workers engine shards (shard.go) each step a contiguous
//     circulation range, and a merger folds their contributions by
//     circulation index in interval order. The working set is O(servers)
//     regardless of trace length, and the run can checkpoint at interval
//     boundaries and resume bit-identically (checkpoint.go). The in-memory
//     Run/RunContext API is a thin adapter over it.
//   - Fleet (fleet.go) runs whole trace x scheme combinations
//     concurrently through one driver (RunSourcesContext), sharing one
//     immutable look-up space per CPU spec and axes.
//
// Results are bit-identical for any worker count: the merge follows
// circulation index order, so no floating-point sum is ever reassociated.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/h2p-sim/h2p/internal/chiller"
	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/stats"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// Config parameterizes a datacenter simulation.
type Config struct {
	// ServersPerCirculation is n of Sec. V-A: how many servers share one
	// water circulation (CDU + pump + cooling setting).
	ServersPerCirculation int
	// Scheme is the workload-scheduling strategy.
	Scheme sched.Scheme
	// Spec is the server CPU model.
	Spec cpu.Spec
	// Axes defines the look-up space sampling grid.
	Axes lookup.Axes
	// TEGsPerServer is the module size at each CPU outlet (12).
	TEGsPerServer int
	// ColdSource is the TEG cold-side natural water temperature (20 °C).
	ColdSource units.Celsius
	// WetBulb is the ambient wet-bulb temperature for plant dispatch.
	WetBulb units.Celsius
	// Env, when non-nil, is the facility environment source: per-interval
	// ambient wet-bulb, TEG cold-side temperature and heat-reuse demand.
	// nil — the default — behaves exactly like env.NewConstant(WetBulb,
	// ColdSource): every interval sees the two constants above and no reuse
	// demand, bit-identical to an engine predating the environment layer.
	Env env.Source
	// Reuse, when non-nil, diverts the demand fraction of each circulation's
	// rejected heat to a district-heating sink before plant dispatch, so the
	// tower and chiller only serve the remainder. nil is the no-reuse plant.
	Reuse *heatreuse.Sink
	// Storage, when non-nil, buffers the datacenter's harvested TEG power
	// through a hybrid SC+battery element sized by the spec: each interval
	// the aggregator charges the surplus over the plant draw and discharges
	// against the deficit. nil is the buffer-free plant.
	Storage *storage.BufferSpec
	// HXApproach is the CDU heat-exchanger approach: the facility water
	// must be this much colder than the TCS inlet target.
	HXApproach units.Celsius
	// PumpRatedPower/PumpMaxFlow size the per-server share of the
	// circulation pump.
	PumpRatedPower units.Watts
	PumpMaxFlow    units.LitersPerHour
	// Workers is the run's parallelism: the number of engine shards the
	// run loop partitions the circulations into (Partition), each stepped
	// on its own goroutine. 0 means runtime.GOMAXPROCS(0); counts above the
	// circulation count clamp down. Results are bit-identical for any
	// value.
	Workers int
	// DecisionQuantum is the cooling controller's decision quantum
	// (sched.Controller.CacheQuantum): the plane utilization snaps to a
	// multiple of it before the setting is chosen. 0 — the default, and the
	// paper-faithful setting — keeps the exact plane; a positive quantum
	// (e.g. 1/512) lets more circulations of a column share one slab scan
	// at the cost of a sub-quantum perturbation of the chosen setting.
	DecisionQuantum float64
	// Telemetry, when non-nil, instruments the engine, its controller and
	// the shared look-up space: interval/step latency histograms, the run
	// pipeline's decode/step/merge-wait timings, decision counters,
	// scan lengths, and the harvested-power and outlet-temperature series,
	// plus a span tracer. nil — the default
	// — is the true no-op path: the warm Decide/Step path performs no
	// added atomics, no clock reads and zero allocations, and simulation
	// results are bit-identical either way.
	Telemetry *telemetry.Registry
	// Faults, when non-nil and non-empty, injects the plan's operating
	// faults (TEG degradation/open-circuit, pump droop, stuck sensors,
	// transient step errors) into every run. nil — the default — is the
	// fault-free plant, with results bit-identical to an engine without the
	// fault layer.
	Faults *fault.Plan
	// FaultSeed seeds the deterministic fault-activation hash. Activation
	// is a pure function of (seed, fault stream, unit, interval), so runs
	// are reproducible for any worker count.
	FaultSeed int64
}

// DefaultConfig returns the paper's evaluation configuration for the given
// scheme: 25-server circulations, 12 TEGs per server, a 20 °C cold source.
func DefaultConfig(scheme sched.Scheme) Config {
	return Config{
		ServersPerCirculation: 25,
		Scheme:                scheme,
		Spec:                  cpu.XeonE52650V3(),
		Axes:                  lookup.DefaultAxes(),
		TEGsPerServer:         12,
		ColdSource:            20,
		WetBulb:               18,
		HXApproach:            2,
		PumpRatedPower:        4,
		PumpMaxFlow:           300,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ServersPerCirculation <= 0 {
		return errors.New("core: ServersPerCirculation must be positive")
	}
	if c.TEGsPerServer <= 0 {
		return errors.New("core: TEGsPerServer must be positive")
	}
	if c.Scheme != sched.Original && c.Scheme != sched.LoadBalance {
		return fmt.Errorf("core: unknown scheme %q", c.Scheme)
	}
	if c.PumpMaxFlow <= 0 {
		return errors.New("core: PumpMaxFlow must be positive")
	}
	if c.Workers < 0 {
		return errors.New("core: Workers must be non-negative")
	}
	if c.DecisionQuantum < 0 {
		return errors.New("core: DecisionQuantum must be non-negative")
	}
	if v, ok := c.Env.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if err := c.Reuse.Validate(); err != nil {
		return err
	}
	if c.Storage != nil {
		if err := c.Storage.Validate(); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Spec.Validate()
}

// EnvSource resolves the run's environment: Env when set, otherwise the
// constant source built from the WetBulb and ColdSource fields. The two are
// interchangeable — an explicit env.NewConstant(WetBulb, ColdSource) and the
// nil default produce identical samples and the same fingerprint, so
// checkpoints resume across the spelling.
func (c Config) EnvSource() env.Source {
	if c.Env != nil {
		return c.Env
	}
	return env.NewConstant(c.WetBulb, c.ColdSource)
}

// Plant is the configuration's facility-plant constructor — the one place
// the engine (and through it h2psim and the serve handler) builds the
// tower+chiller pair, so every layer dispatches against the same models:
// chiller.DefaultTower beside the paper's chiller.Default (COP 3.6).
func (c Config) Plant() chiller.Plant {
	return chiller.Plant{Tower: chiller.DefaultTower(), Chiller: chiller.Default()}
}

// Circulations reports how many circulations an nServers datacenter forms
// under the configuration — the index space Partition splits into shards.
func (c Config) Circulations(nServers int) int {
	n := c.ServersPerCirculation
	if n > nServers {
		n = nServers
	}
	if n <= 0 {
		return 0
	}
	return (nServers + n - 1) / n
}

// CirculationSpan returns the server range [lo, hi) of circulation ci in an
// nServers datacenter — the same spans Engine.circulations wires.
func (c Config) CirculationSpan(nServers, ci int) (lo, hi int) {
	n := c.ServersPerCirculation
	if n > nServers {
		n = nServers
	}
	lo = ci * n
	hi = lo + n
	if hi > nServers {
		hi = nServers
	}
	return lo, hi
}

// IntervalResult captures one control interval of the whole datacenter.
type IntervalResult struct {
	// AvgUtilization and MaxUtilization summarize the raw workload.
	AvgUtilization, MaxUtilization float64
	// TEGPowerPerServer is the datacenter-wide mean TEG output per server
	// — the Fig. 14 series.
	TEGPowerPerServer units.Watts
	// TotalTEGPower and TotalCPUPower are datacenter sums.
	TotalTEGPower, TotalCPUPower units.Watts
	// MeanInlet and MeanFlow average the chosen cooling settings.
	MeanInlet units.Celsius
	MeanFlow  units.LitersPerHour
	// MeanOutlet averages the circulations' mean coolant outlet
	// temperatures — the TEG hot-side series (Fig. 9's axis at datacenter
	// scale).
	MeanOutlet units.Celsius
	// MaxCPUTemp is the hottest die across all circulations.
	MaxCPUTemp units.Celsius
	// PumpPower is the total circulation-pump draw.
	PumpPower units.Watts
	// TowerPower and ChillerPower are the facility plant draws.
	TowerPower, ChillerPower units.Watts

	// Environment at this interval, stamped by the Aggregator from the run's
	// environment source (the constant default stamps its fixed values).
	ColdSide, WetBulb units.Celsius
	// HeatDemand is the interval's heat-reuse demand signal in [0, 1].
	HeatDemand float64
	// ReusedHeat is the thermal power diverted to the reuse sink instead of
	// the cooling plant — zero without a configured sink.
	ReusedHeat units.Watts

	// Storage accounting — all zero without a configured buffer. Stored,
	// Spilled and Discharged are the interval's buffer flows; SoC is the
	// buffer's state of charge at the interval boundary.
	StorageStoredW, StorageSpilledW, StorageDischargedW units.Watts
	StorageSoCWh                                        float64

	// Fault accounting — all zero in a fault-free run.
	//
	// DegradedCirculations counts circulations excluded from this
	// interval's sums and means after exhausting their step retries.
	DegradedCirculations int
	// HealthyTEGServers is the per-server mean's denominator: servers whose
	// module contributed to the harvest sum (open-circuit modules and
	// degraded circulations are excluded, never averaged in as zeros).
	HealthyTEGServers int
	// OpenTEGModules and DegradedTEGModules count the interval's
	// open-circuit and degradation-scaled modules.
	OpenTEGModules, DegradedTEGModules int
	// SensorFallbacks and SensorDegraded count outlet sensors served from
	// the last-good fallback, and fallbacks past the staleness bound.
	SensorFallbacks, SensorDegraded int
	// PumpDroops counts circulations served below commanded flow.
	PumpDroops int
	// StepRetries counts step attempts beyond each circulation's first.
	StepRetries int
}

// Result is a complete trace-driven evaluation run.
type Result struct {
	TraceName string
	Class     trace.Class
	Scheme    sched.Scheme
	Interval  time.Duration
	Servers   int
	Intervals []IntervalResult

	// Summary metrics.
	AvgTEGPowerPerServer  units.Watts // the headline Fig. 14 number
	PeakTEGPowerPerServer units.Watts
	// MeanAvgUtilization is the run mean of the per-interval average
	// utilization — the trace-side "meanU" available even when the interval
	// series is not retained (streaming runs).
	MeanAvgUtilization float64
	PRE                float64 // Eq. 19: TEG generation / CPU consumption
	TEGEnergy          units.KilowattHours
	CPUEnergy          units.KilowattHours
	PlantEnergy        units.KilowattHours // pumps + tower + chiller

	// Env summarizes the run's facility environment.
	Env EnvSummary
	// Heat-reuse accounting — zero without a configured sink. ReusedHeat is
	// thermal energy sold to the sink; ReuseRevenue prices it at the sink's
	// tariff.
	ReusedHeat   units.KilowattHours
	ReuseRevenue units.USD
	// Storage accounting — zero without a configured buffer. StorageStored /
	// StorageDelivered / StorageSpilled are the buffer's lifetime flows;
	// StorageFinalWh is its state of charge after the last interval.
	StorageStored    units.KilowattHours
	StorageDelivered units.KilowattHours
	StorageSpilled   units.KilowattHours
	StorageFinalWh   float64

	// Faults summarizes injected-fault handling across the run; the zero
	// value means a fault-free plant.
	Faults FaultSummary
}

// EnvSummary describes the environment a run was evaluated under: the source
// name plus the ranges its samples spanned. Finalize computes the ranges by
// scanning the pure source over the run's intervals, so a resumed run reports
// the same summary as an uninterrupted one.
type EnvSummary struct {
	// Name identifies the source ("constant", "seasonal", "profile").
	Name string
	// Cold-side and wet-bulb ranges over the run's intervals.
	MinColdSide, MaxColdSide units.Celsius
	MinWetBulb, MaxWetBulb   units.Celsius
	// MeanHeatDemand averages the demand signal; HeatingIntervals counts
	// intervals with demand > 0.
	MeanHeatDemand   float64
	HeatingIntervals int
}

// FaultSummary aggregates the run's fault accounting.
type FaultSummary struct {
	// DegradedIntervals counts circulation-intervals excluded after
	// exhausting retries.
	DegradedIntervals int64
	// OpenTEG and DegradedTEG count module-intervals excluded (open
	// circuit) and scaled (degradation).
	OpenTEG, DegradedTEG int64
	// SensorFallbacks and SensorDegraded count last-good sensor servings
	// and servings past the staleness bound.
	SensorFallbacks, SensorDegraded int64
	// PumpDroops counts circulation-intervals below commanded flow.
	PumpDroops int64
	// StepRetries counts step attempts beyond the first.
	StepRetries int64
}

// Any reports whether any fault fired during the run.
func (f FaultSummary) Any() bool { return f != (FaultSummary{}) }

// accumulate folds one interval's accounting into the summary.
func (f *FaultSummary) accumulate(ir IntervalResult) {
	f.DegradedIntervals += int64(ir.DegradedCirculations)
	f.OpenTEG += int64(ir.OpenTEGModules)
	f.DegradedTEG += int64(ir.DegradedTEGModules)
	f.SensorFallbacks += int64(ir.SensorFallbacks)
	f.SensorDegraded += int64(ir.SensorDegraded)
	f.PumpDroops += int64(ir.PumpDroops)
	f.StepRetries += int64(ir.StepRetries)
}

// Engine runs trace-driven simulations under a fixed configuration. An
// Engine is safe for concurrent Run calls: per-run mutable state (the
// circulations and their pumps) is built per call, and the shared controller
// is concurrency-safe.
type Engine struct {
	cfg        Config
	controller *sched.Controller
	plant      chiller.Plant
	// env is cfg.EnvSource(), resolved once so every circulation and the
	// aggregator sample the same source instance.
	env env.Source
	// met instruments each circulation step; nil when cfg.Telemetry is nil.
	met *engineMetrics
	// run holds the run-level registry instruments, registered with met;
	// each run copies it into its runMetrics (newRunMetrics).
	run runMetrics
	// inj is cfg.Faults compiled against cfg.FaultSeed; nil when the plan
	// is nil or empty (the fault-free fast path).
	inj *fault.Injector
}

// NewEngine builds the look-up space and controller for cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space, err := lookup.Build(cfg.Spec, cfg.Axes)
	if err != nil {
		return nil, err
	}
	return newEngineWithSpace(cfg, space)
}

// newEngineWithSpace wires an engine around an existing look-up space. The
// space must have been built for cfg.Spec and cfg.Axes; it is only read.
func newEngineWithSpace(cfg Config, space *lookup.Space) (*Engine, error) {
	ctl, err := newController(cfg, space)
	if err != nil {
		return nil, err
	}
	inj, err := cfg.Faults.Compile(cfg.FaultSeed)
	if err != nil {
		return nil, err
	}
	met, run := newEngineMetrics(cfg.Telemetry)
	return &Engine{cfg: cfg, controller: ctl, plant: cfg.Plant(),
		env: cfg.EnvSource(), met: met, run: run, inj: inj}, nil
}

// newController builds the cooling controller for cfg over space: the
// SP1848 module stack with flow derating, cfg's cold source and decision
// quantum, and — when cfg.Telemetry is set — the decision stack's
// instruments.
func newController(cfg Config, space *lookup.Space) (*sched.Controller, error) {
	mod, err := teg.NewModule(teg.SP1848(), cfg.TEGsPerServer)
	if err != nil {
		return nil, err
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	ctl, err := sched.NewController(space, mod, cfg.ColdSource)
	if err != nil {
		return nil, err
	}
	ctl.CacheQuantum = cfg.DecisionQuantum
	if cfg.Telemetry != nil {
		// Wire the whole decision stack into the run's registry: the
		// controller's cache counters and chosen-setting distribution, and
		// the shared space's scan-length metrics. Attachment is idempotent
		// by metric name, so engines sharing a space or a registry (the
		// Fleet's comparison runs) aggregate rather than collide.
		ctl.AttachTelemetry(cfg.Telemetry)
		space.AttachTelemetry(cfg.Telemetry)
	}
	return ctl, nil
}

// Controller exposes the engine's cooling controller (used by benches and
// ablations).
func (e *Engine) Controller() *sched.Controller { return e.controller }

// circulationsRange wires the circulations [cLo, cHi) of an nServers
// datacenter — Config.ServersPerCirculation-sized, the last one possibly
// short — preserving their global indices and server spans: circulation
// ci always owns the same servers and the same fault-activation identity no
// matter which contiguous subrange (engine shard) it is built into.
func (e *Engine) circulationsRange(nServers, cLo, cHi int) []Circulation {
	circs := make([]Circulation, 0, cHi-cLo)
	for ci := cLo; ci < cHi; ci++ {
		lo, hi := e.cfg.CirculationSpan(nServers, ci)
		circs = append(circs, newCirculation(ci, lo, hi, e.cfg, e.controller, e.plant, e.env, e.met, e.inj))
	}
	return circs
}

// Run evaluates the trace under the engine's configuration.
func (e *Engine) Run(tr *trace.Trace) (*Result, error) {
	return e.RunContext(context.Background(), tr)
}

// RunContext evaluates the trace across Config.Workers engine shards. The
// result is bit-identical for every worker count. Cancelling the context
// aborts the run promptly with the context's error.
//
// It is a thin adapter over the run loop (RunSourceContext): the trace is
// wrapped in a TraceSource and the full interval series is retained.
func (e *Engine) RunContext(ctx context.Context, tr *trace.Trace) (*Result, error) {
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		return nil, err
	}
	return e.RunSourceContext(ctx, src, &RunOptions{KeepSeries: true})
}

// workerState is one shard's reusable batch-decision working set: the
// controller's column scratch plus the per-block argument arrays. One
// workerState belongs to exactly one ShardRunner for the run's lifetime, so
// nothing here is synchronized.
type workerState struct {
	bs     sched.BatchScratch
	ranges []sched.Range
	scrs   []*sched.Scratch
	decs   []sched.Decision
}

// grow sizes the per-block arrays to n circulations, reusing capacity.
func (ws *workerState) grow(n int) {
	if cap(ws.ranges) < n {
		ws.ranges = make([]sched.Range, n)
		ws.scrs = make([]*sched.Scratch, n)
		ws.decs = make([]sched.Decision, n)
	}
	ws.ranges = ws.ranges[:n]
	ws.scrs = ws.scrs[:n]
	ws.decs = ws.decs[:n]
}

// stepBlock runs one block of circulations through the batched decision
// kernel and the per-circulation finish, writing each circulation's
// contribution (or error) into its slot.
//
// The decision is a pure function of the column, so one DecideBatchCold
// serves every retry attempt of every circulation in the block. If the batch
// decision fails under an active fault injector, the circulations before the
// failing one keep the batch's decisions, the failing one takes the batch's
// single-circulation error, and each circulation after it is decided alone
// with Decide (every circulation is, for an error the batch attributes to no
// circulation). Each decision or decide error enters its circulation's retry
// loop: a circulation whose decision fails fails every attempt and degrades,
// while the others finish normally. With no injector a decide failure is
// fatal, attributed to the block's lowest failing circulation with the
// untouched single-circulation error.
func stepBlock(circs []Circulation, col []float64, interval int, ws *workerState, parts []CirculationInterval, errs []error) {
	ws.grow(len(circs))
	for k := range circs {
		c := &circs[k]
		ws.ranges[k] = sched.Range{Lo: c.Lo, Hi: c.Hi}
		ws.scrs[k] = &c.scratch
		errs[k] = nil
	}
	c0 := &circs[0]
	// The environment is a pure function of the interval and shared by every
	// circulation, so one sample serves the whole block's decisions and
	// finishes.
	smp := c0.env.At(interval)
	if err := c0.ctl.DecideBatchCold(col, ws.ranges, c0.scheme, smp.ColdSide, &ws.bs, ws.scrs, ws.decs); err != nil {
		var ge sched.GroupError
		grouped := errors.As(err, &ge)
		if c0.inj == nil {
			if grouped {
				errs[ge.Group] = ge.Err
			} else {
				errs[0] = err
			}
			return
		}
		decided := 0
		if grouped {
			decided = ge.Group
		}
		for k := range circs {
			c := &circs[k]
			var derr error
			switch {
			case k < decided: // the batch's decision stands
			case grouped && k == decided:
				ws.decs[k], derr = sched.Decision{}, ge.Err
			default:
				ws.decs[k], derr = c.ctl.Decide(col[c.Lo:c.Hi], c.scheme, smp.ColdSide, &c.scratch)
			}
			errs[k] = c.stepWithDecision(&parts[k], interval, &smp, &ws.decs[k], derr)
		}
		return
	}
	for k := range circs {
		errs[k] = circs[k].stepWithDecision(&parts[k], interval, &smp, &ws.decs[k], nil)
	}
}

// MergeInterval folds per-circulation contributions into one IntervalResult
// in circulation index order, whatever the shard layout that produced them,
// so no floating-point sum is ever reassociated. col is the full datacenter
// utilization column; parts holds every circulation's contribution in
// circulation index order.
//
// Degraded circulations (step failed every retry) are excluded from the sums
// and the means' denominators, and open-circuit TEG modules are excluded
// from the per-server mean's denominator: a faulted plant shrinks the
// population instead of NaN-poisoning or zero-diluting the averages. With no
// faults every circulation is healthy and the arithmetic is bit-identical to
// the fault-free merge.
func MergeInterval(col []float64, parts []CirculationInterval) IntervalResult {
	ir := IntervalResult{
		AvgUtilization: stats.Mean(col),
		MaxUtilization: stats.Max(col),
	}
	healthy := 0
	for i := range parts {
		p := &parts[i]
		if p.Degraded {
			ir.DegradedCirculations++
			ir.StepRetries += p.Retries
			continue
		}
		healthy++
		ir.TotalTEGPower += p.TEGPower
		ir.TotalCPUPower += p.CPUPower
		ir.MeanInlet += p.Inlet
		ir.MeanFlow += p.Flow
		ir.MeanOutlet += p.Outlet
		if p.MaxCPUTemp > ir.MaxCPUTemp {
			ir.MaxCPUTemp = p.MaxCPUTemp
		}
		ir.PumpPower += p.PumpPower
		ir.TowerPower += p.TowerPower
		ir.ChillerPower += p.ChillerPower
		ir.ReusedHeat += p.ReusedHeat

		ir.HealthyTEGServers += p.TEGServers
		ir.OpenTEGModules += p.OpenTEG
		ir.DegradedTEGModules += p.DegradedTEG
		if p.SensorStatus == hydro.SensorStale {
			ir.SensorFallbacks++
		} else if p.SensorStatus == hydro.SensorDegraded {
			ir.SensorDegraded++
		}
		if p.PumpDrooped {
			ir.PumpDroops++
		}
		ir.StepRetries += p.Retries
	}
	if healthy == 0 {
		// Every circulation degraded (or parts was empty): report zeroed
		// physics rather than 0/0 NaNs. The utilization stats above are
		// still meaningful — they come from the trace, not the plant.
		return ir
	}
	ir.MeanInlet /= units.Celsius(healthy)
	ir.MeanFlow /= units.LitersPerHour(healthy)
	ir.MeanOutlet /= units.Celsius(healthy)
	if ir.HealthyTEGServers > 0 {
		ir.TEGPowerPerServer = ir.TotalTEGPower / units.Watts(float64(ir.HealthyTEGServers))
	}
	return ir
}
