package core

import (
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// Aggregator is the run-level fold of the engine: it accumulates
// IntervalResults into a Result's running aggregates in interval order, so
// no floating-point sum is ever reassociated. RunSourceContext's merger folds
// through an Aggregator.
//
// An Aggregator is single-goroutine state: exactly one merger folds at a
// time. Checkpoint/Restore freeze and resume the fold at an interval
// boundary.
type Aggregator struct {
	meta       trace.Meta
	scheme     sched.Scheme
	keepSeries bool
	secs       float64

	// env is the run's environment source; Fold stamps each interval with
	// its sample and Finalize scans it for the summary ranges.
	env env.Source
	// reuse prices the diverted heat; nil earns nothing.
	reuse *heatreuse.Sink
	// buffer, when non-nil, is the run's storage element: Fold steps it with
	// the interval's TEG generation against the plant draw. It is fold-order
	// state exactly like the energy sums, so it lives here — the one place
	// shared by the streaming loop and the sharded merger — and rides the
	// checkpoint with them.
	buffer *storage.HybridBuffer

	res                *Result
	sumTEG, sumAvgUtil float64
	next               int
}

// NewAggregator starts an empty fold for one run over the source shape meta
// under the engine configuration cfg (scheme, environment, reuse sink and
// storage buffer). With keepSeries every folded IntervalResult is retained in
// the Result's series; without it the working set is O(1) in the trace
// length.
func NewAggregator(meta trace.Meta, cfg Config, keepSeries bool) *Aggregator {
	res := &Result{
		TraceName: meta.Name,
		Class:     meta.Class,
		Scheme:    cfg.Scheme,
		Interval:  meta.Interval,
		Servers:   meta.Servers,
	}
	if keepSeries {
		res.Intervals = make([]IntervalResult, 0, meta.Intervals)
	}
	a := &Aggregator{
		meta:       meta,
		scheme:     cfg.Scheme,
		keepSeries: keepSeries,
		secs:       meta.Interval.Seconds(),
		env:        cfg.EnvSource(),
		reuse:      cfg.Reuse,
		res:        res,
	}
	if cfg.Storage != nil {
		// cfg passed Validate, so Build cannot fail; a defensive nil check
		// below keeps a hand-rolled bad spec storage-free instead of panicking.
		a.buffer, _ = cfg.Storage.Build()
	}
	return a
}

// Fold accumulates one merged interval. Intervals must be folded in interval
// order, starting at 0 (or at the restored checkpoint's NextInterval). Fold
// stamps the interval with its environment sample and, with a configured
// buffer, steps the storage element — both are pure functions of the fold
// position, so the stamped series and the buffer trajectory are identical for
// any worker or shard count.
func (a *Aggregator) Fold(ir IntervalResult) {
	smp := a.env.At(a.next)
	ir.ColdSide, ir.WetBulb, ir.HeatDemand = smp.ColdSide, smp.WetBulb, smp.HeatDemand
	if a.buffer != nil {
		demand := ir.PumpPower + ir.TowerPower + ir.ChillerPower
		if r, err := a.buffer.Step(ir.TotalTEGPower, demand, a.secs/3600); err == nil {
			ir.StorageStoredW = r.Stored
			ir.StorageSpilledW = r.Spilled
			ir.StorageDischargedW = r.FromBuffer
			ir.StorageSoCWh = a.buffer.StoredWh()
			a.res.StorageStored += units.EnergyOver(r.Stored, a.secs).KilowattHours()
			a.res.StorageDelivered += units.EnergyOver(r.FromBuffer, a.secs).KilowattHours()
			a.res.StorageSpilled += units.EnergyOver(r.Spilled, a.secs).KilowattHours()
		}
	}
	if a.keepSeries {
		a.res.Intervals = append(a.res.Intervals, ir)
	}
	a.res.Faults.accumulate(ir)

	a.res.TEGEnergy += units.EnergyOver(ir.TotalTEGPower, a.secs).KilowattHours()
	a.res.CPUEnergy += units.EnergyOver(ir.TotalCPUPower, a.secs).KilowattHours()
	plant := ir.PumpPower + ir.TowerPower + ir.ChillerPower
	a.res.PlantEnergy += units.EnergyOver(plant, a.secs).KilowattHours()
	a.res.ReusedHeat += units.EnergyOver(ir.ReusedHeat, a.secs).KilowattHours()

	a.sumTEG += float64(ir.TEGPowerPerServer)
	a.sumAvgUtil += ir.AvgUtilization
	if ir.TEGPowerPerServer > a.res.PeakTEGPowerPerServer {
		a.res.PeakTEGPowerPerServer = ir.TEGPowerPerServer
	}
	a.next++
}

// Checkpoint freezes the fold at the current interval boundary: the run
// identity, NextInterval, every running aggregate and (for series-keeping
// folds) the retained series. The engine-side state — the sensor snapshots —
// is the caller's to fill in.
func (a *Aggregator) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:      CheckpointVersion,
		TraceName:    a.meta.Name,
		Class:        a.meta.Class,
		Scheme:       a.scheme,
		Servers:      a.meta.Servers,
		Intervals:    a.meta.Intervals,
		Interval:     a.meta.Interval,
		NextInterval: a.next,

		SumTEGPerServer:  a.sumTEG,
		PeakTEGPerServer: float64(a.res.PeakTEGPowerPerServer),
		SumAvgUtil:       a.sumAvgUtil,
		TEGEnergy:        float64(a.res.TEGEnergy),
		CPUEnergy:        float64(a.res.CPUEnergy),
		PlantEnergy:      float64(a.res.PlantEnergy),
		ReusedHeat:       float64(a.res.ReusedHeat),
		StorageStored:    float64(a.res.StorageStored),
		StorageDelivered: float64(a.res.StorageDelivered),
		StorageSpilled:   float64(a.res.StorageSpilled),
		EnvFingerprint:   a.env.Fingerprint(),
		Faults:           a.res.Faults,
	}
	if a.buffer != nil {
		cp.StorageWh = a.buffer.StateWh()
	}
	if a.keepSeries {
		cp.Series = append([]IntervalResult(nil), a.res.Intervals...)
	}
	return cp
}

// Restore resumes the fold from a validated checkpoint's aggregates; the next
// Fold must deliver interval cp.NextInterval. The caller is responsible for
// having run ValidateFor first.
func (a *Aggregator) Restore(cp *Checkpoint) {
	a.next = cp.NextInterval
	a.sumTEG = cp.SumTEGPerServer
	a.sumAvgUtil = cp.SumAvgUtil
	a.res.PeakTEGPowerPerServer = units.Watts(cp.PeakTEGPerServer)
	a.res.TEGEnergy = units.KilowattHours(cp.TEGEnergy)
	a.res.CPUEnergy = units.KilowattHours(cp.CPUEnergy)
	a.res.PlantEnergy = units.KilowattHours(cp.PlantEnergy)
	a.res.ReusedHeat = units.KilowattHours(cp.ReusedHeat)
	a.res.StorageStored = units.KilowattHours(cp.StorageStored)
	a.res.StorageDelivered = units.KilowattHours(cp.StorageDelivered)
	a.res.StorageSpilled = units.KilowattHours(cp.StorageSpilled)
	if a.buffer != nil && len(cp.StorageWh) > 0 {
		// ValidateFor bounds-checked the snapshot against the spec, so this
		// cannot fail; a corrupt value resumes from an empty buffer rather
		// than aborting the run.
		_ = a.buffer.RestoreWh(cp.StorageWh)
	}
	a.res.Faults = cp.Faults
	if a.keepSeries {
		a.res.Intervals = append(a.res.Intervals, cp.Series...)
	}
}

// Finalize completes the fold after the last interval: the run means divide
// by the full interval count, exactly as the legacy path did. The returned
// Result must not be folded into further.
func (a *Aggregator) Finalize() *Result {
	a.res.AvgTEGPowerPerServer = units.Watts(a.sumTEG / float64(a.meta.Intervals))
	a.res.MeanAvgUtilization = a.sumAvgUtil / float64(a.meta.Intervals)
	if a.res.CPUEnergy > 0 {
		a.res.PRE = float64(a.res.TEGEnergy) / float64(a.res.CPUEnergy)
	}
	a.res.ReuseRevenue = a.reuse.Revenue(a.res.ReusedHeat)
	if a.buffer != nil {
		a.res.StorageFinalWh = a.buffer.StoredWh()
	}
	a.res.Env = a.envSummary()
	return a.res
}

// envSummary scans the pure environment source over the run's intervals for
// the summary ranges. The scan is independent of the fold position, so a
// resumed run reports the same summary as an uninterrupted one.
func (a *Aggregator) envSummary() EnvSummary {
	s := EnvSummary{Name: a.env.Name()}
	n := a.meta.Intervals
	if n <= 0 {
		return s
	}
	var sumDemand float64
	for i := 0; i < n; i++ {
		smp := a.env.At(i)
		if i == 0 || smp.ColdSide < s.MinColdSide {
			s.MinColdSide = smp.ColdSide
		}
		if i == 0 || smp.ColdSide > s.MaxColdSide {
			s.MaxColdSide = smp.ColdSide
		}
		if i == 0 || smp.WetBulb < s.MinWetBulb {
			s.MinWetBulb = smp.WetBulb
		}
		if i == 0 || smp.WetBulb > s.MaxWetBulb {
			s.MaxWetBulb = smp.WetBulb
		}
		sumDemand += smp.HeatDemand
		if smp.HeatDemand > 0 {
			s.HeatingIntervals++
		}
	}
	s.MeanHeatDemand = sumDemand / float64(n)
	return s
}
