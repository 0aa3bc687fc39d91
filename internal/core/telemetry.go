package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported engine metric names.
const (
	metricIntervals      = "h2p_engine_intervals_total"
	metricSteps          = "h2p_engine_circulation_steps_total"
	metricIntervalSec    = "h2p_engine_interval_seconds"
	metricStepSec        = "h2p_engine_circulation_step_seconds"
	metricCirculations   = "h2p_engine_circulations"
	metricHarvestedPower = "h2p_interval_teg_power_watts_per_server"
	metricOutletTemp     = "h2p_circulation_outlet_celsius"
	metricMaxCPUTemp     = "h2p_interval_max_cpu_celsius"

	// Checkpoint/resume instruments (stream.go).
	metricCheckpoints   = "h2p_engine_checkpoints_total"
	metricResumes       = "h2p_engine_resumes_total"
	metricResumeSkipped = "h2p_engine_resume_skipped_intervals_total"
)

// Exported run-pipeline metric names (stream.go). Per-shard instruments are
// hint-sharded by shard index on the run's shared registry (the same
// shared-by-name discipline Fleet engines follow), so a serving endpoint sees
// one coherent series set no matter how many shards fold into it.
const (
	metricShards        = "h2p_shard_count"
	metricPrefetchDepth = "h2p_shard_prefetch_depth"
	metricShardSteps    = "h2p_shard_intervals_total"
	metricShardStepSec  = "h2p_shard_step_seconds"
	metricMergeWaitSec  = "h2p_shard_merge_wait_seconds"
	metricDecodeSec     = "h2p_shard_decode_seconds"
)

// Exported fault-layer metric names. The report's Telemetry section groups
// everything under the "h2p_fault_" prefix into its own fault subsection.
const (
	metricFaultOpenTEG        = "h2p_fault_teg_open_total"
	metricFaultDegradedTEG    = "h2p_fault_teg_degraded_total"
	metricFaultPumpDroop      = "h2p_fault_pump_droop_total"
	metricFaultSensorStale    = "h2p_fault_sensor_stale_total"
	metricFaultSensorDegraded = "h2p_fault_sensor_degraded_total"
	metricFaultStepRetries    = "h2p_fault_step_retries_total"
	metricFaultDegraded       = "h2p_fault_degraded_intervals_total"
)

// Span names recorded by the engine's tracer. Together with the per-shard
// step spans ("shard03.step") they make the run pipeline visible as a
// timeline: the Perfetto exporter (internal/obs) maps each name to its own
// track.
const (
	spanInterval    = "interval"
	spanCirculation = "circulation"
	spanDecode      = "decode"
	spanMergeWait   = "merge.wait"
	spanCheckpoint  = "checkpoint"
)

// engineMetrics instruments the interval loop: wall-clock latency of whole
// intervals and individual circulation steps, and the physical per-interval
// series the paper's evaluation is built on (harvested TEG power, outlet
// temperature, hottest die). nil —
// the default when Config.Telemetry is nil — disables everything: the run
// loop pays one pointer test per interval and never reads the clock.
type engineMetrics struct {
	intervals      *telemetry.Counter
	steps          *telemetry.Counter
	intervalSec    *telemetry.Histogram
	stepSec        *telemetry.Histogram
	circulations   *telemetry.Gauge
	harvestedPower *telemetry.Histogram
	outletTemp     *telemetry.Histogram
	maxCPUTemp     *telemetry.Histogram
	tracer         *telemetry.Tracer

	// Checkpoint/resume counters: checkpoints written, runs resumed, and
	// intervals skipped (not re-simulated) by resumes.
	checkpoints   *telemetry.Counter
	resumes       *telemetry.Counter
	resumeSkipped *telemetry.Counter

	// Fault-layer counters, sharded by circulation index like the step
	// metrics. They only ever move when an Injector is active.
	faultOpenTEG        *telemetry.Counter
	faultDegradedTEG    *telemetry.Counter
	faultPumpDroop      *telemetry.Counter
	faultSensorStale    *telemetry.Counter
	faultSensorDegraded *telemetry.Counter
	faultStepRetries    *telemetry.Counter
	faultDegraded       *telemetry.Counter
}

// newEngineMetrics registers the engine's instruments with reg; a nil
// registry yields nil (telemetry disabled). Several engines sharing one
// registry (a Fleet comparison run) share the same instruments by name and
// aggregate into one set of series.
func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		intervals: reg.Counter(metricIntervals, "control intervals evaluated"),
		steps:     reg.Counter(metricSteps, "circulation steps evaluated"),
		intervalSec: reg.Histogram(metricIntervalSec, "wall-clock seconds per control interval",
			telemetry.ExponentialBuckets(1e-5, 4, 10)),
		stepSec: reg.Histogram(metricStepSec, "wall-clock seconds per circulation step",
			telemetry.ExponentialBuckets(1e-6, 4, 10)),
		circulations: reg.Gauge(metricCirculations, "circulations per interval"),
		harvestedPower: reg.Histogram(metricHarvestedPower, "datacenter-mean harvested TEG power per server, one observation per interval",
			telemetry.LinearBuckets(0, 1, 16)),
		outletTemp: reg.Histogram(metricOutletTemp, "circulation mean coolant outlet temperature, one observation per step",
			telemetry.LinearBuckets(30, 2, 15)),
		maxCPUTemp: reg.Histogram(metricMaxCPUTemp, "hottest die across the datacenter, one observation per interval",
			telemetry.LinearBuckets(40, 2, 15)),
		tracer: reg.Tracer(telemetry.DefaultTraceCapacity),

		checkpoints:   reg.Counter(metricCheckpoints, "engine checkpoints written at interval boundaries"),
		resumes:       reg.Counter(metricResumes, "runs resumed from a checkpoint"),
		resumeSkipped: reg.Counter(metricResumeSkipped, "intervals skipped (not re-simulated) by checkpoint resumes"),

		faultOpenTEG:        reg.Counter(metricFaultOpenTEG, "open-circuit TEG module-intervals excluded from the harvest sum"),
		faultDegradedTEG:    reg.Counter(metricFaultDegradedTEG, "degradation-scaled TEG module-intervals"),
		faultPumpDroop:      reg.Counter(metricFaultPumpDroop, "circulation-intervals served below commanded flow"),
		faultSensorStale:    reg.Counter(metricFaultSensorStale, "outlet-sensor readings served from the last-good fallback"),
		faultSensorDegraded: reg.Counter(metricFaultSensorDegraded, "outlet-sensor fallbacks past the staleness bound"),
		faultStepRetries:    reg.Counter(metricFaultStepRetries, "circulation step retry attempts"),
		faultDegraded:       reg.Counter(metricFaultDegraded, "circulation-intervals degraded after exhausting retries"),
	}
}

// faultObs is one circulation's fault accounting for a step (or retry)
// observation.
type faultObs struct {
	openTEG        int
	degradedTEG    int
	pumpDroop      bool
	sensorStale    bool
	sensorDegraded bool
	retries        int
	degraded       bool
}

// observeFault folds one fault observation into the counters, sharded by
// circulation index so parallel shards do not contend.
func (m *engineMetrics) observeFault(index int, o faultObs) {
	if m == nil {
		return
	}
	hint := uint64(index)
	if o.openTEG > 0 {
		m.faultOpenTEG.AddHint(hint, uint64(o.openTEG))
	}
	if o.degradedTEG > 0 {
		m.faultDegradedTEG.AddHint(hint, uint64(o.degradedTEG))
	}
	if o.pumpDroop {
		m.faultPumpDroop.AddHint(hint, 1)
	}
	if o.sensorStale {
		m.faultSensorStale.AddHint(hint, 1)
	}
	if o.sensorDegraded {
		m.faultSensorDegraded.AddHint(hint, 1)
	}
	if o.retries > 0 {
		m.faultStepRetries.AddHint(hint, uint64(o.retries))
	}
	if o.degraded {
		m.faultDegraded.AddHint(hint, 1)
	}
}

// observeInterval records one merged control interval: its wall-clock
// latency from decode start to merge, the harvested-power and hottest-die series, and an "interval"
// span.
func (m *engineMetrics) observeInterval(i int, start time.Time, ir IntervalResult) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.intervals.Inc()
	m.intervalSec.Observe(d.Seconds())
	m.harvestedPower.Observe(float64(ir.TEGPowerPerServer))
	m.maxCPUTemp.Observe(float64(ir.MaxCPUTemp))
	m.tracer.Record(spanInterval, int64(i), start, d)
}

// observeCheckpoint records one checkpoint written at an interval boundary:
// the counter plus a "checkpoint" span covering the drain-and-write window
// (the pipeline is parked on the gate for its duration).
func (m *engineMetrics) observeCheckpoint(done int, start time.Time) {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.tracer.Record(spanCheckpoint, int64(done), start, time.Since(start))
}

// observeResume records one resume and the intervals it skipped.
func (m *engineMetrics) observeResume(skipped int) {
	if m == nil {
		return
	}
	m.resumes.Inc()
	m.resumeSkipped.Add(uint64(skipped))
}

// observeStep records one circulation step, sharded by circulation index so
// parallel shards do not contend.
func (m *engineMetrics) observeStep(index int, start time.Time, outlet float64) {
	if m == nil {
		return
	}
	d := time.Since(start)
	hint := uint64(index)
	m.steps.AddHint(hint, 1)
	m.stepSec.ObserveHint(hint, d.Seconds())
	m.outletTemp.ObserveHint(hint, outlet)
	m.tracer.Record(spanCirculation, int64(index), start, d)
}

// pipelineMetrics is a run's one pipeline clock. It reads time.Since once per
// pipeline event — a column decode, one shard stepping one interval, the
// merger's wait for its next in-order interval — and feeds the duration to
// the telemetry registry's instruments (hinted by shard index so shards never
// contend; set only with Config.Telemetry, and nil-safe otherwise; the spans
// export as a per-shard timeline) and to the cumulative counters behind the
// observer's ShardStats. Each counter has one writer: the decoder, the
// merger, or the shard owning its stepNanos slot. nil when neither consumer
// is attached, so the pipeline never reads the clock; simulation results are
// bit-identical either way.
type pipelineMetrics struct {
	steps     *telemetry.Counter
	stepSec   *telemetry.Histogram
	mergeWait *telemetry.Histogram
	decodeSec *telemetry.Histogram
	tracer    *telemetry.Tracer
	stepNames []string

	decodeNanos    atomic.Int64
	mergeWaits     atomic.Int64
	mergeWaitNanos atomic.Int64
	stepNanos      []atomic.Int64
}

// newPipelineMetrics returns the clock for a run over the given shard
// count: registered with reg when it is non-nil, and kept for the observer
// when stats is set. It returns nil when neither holds.
func newPipelineMetrics(reg *telemetry.Registry, shards int, stats bool) *pipelineMetrics {
	if reg == nil && !stats {
		return nil
	}
	m := &pipelineMetrics{
		stepNames: make([]string, shards),
		stepNanos: make([]atomic.Int64, shards),
	}
	// Names are precomputed once per run so recording a span never
	// allocates.
	for s := range m.stepNames {
		m.stepNames[s] = fmt.Sprintf("shard%02d.step", s)
	}
	if reg == nil {
		return m
	}
	m.steps = reg.Counter(metricShardSteps, "shard-intervals stepped (intervals x shards)")
	m.stepSec = reg.Histogram(metricShardStepSec, "wall-clock seconds one shard spent stepping one interval",
		telemetry.ExponentialBuckets(1e-5, 4, 10))
	m.mergeWait = reg.Histogram(metricMergeWaitSec, "seconds the merger waited for its next in-order interval",
		telemetry.ExponentialBuckets(1e-7, 4, 10))
	m.decodeSec = reg.Histogram(metricDecodeSec, "seconds the decoder spent producing one column",
		telemetry.ExponentialBuckets(1e-6, 4, 10))
	m.tracer = reg.Tracer(telemetry.DefaultTraceCapacity)
	reg.Gauge(metricShards, "engine shards in the run pipeline").Set(float64(shards))
	reg.Gauge(metricPrefetchDepth, "column prefetch pipeline depth (slots)").Set(pipelineDepth)
	return m
}

// observeStep records one shard stepping one interval.
func (m *pipelineMetrics) observeStep(shard, interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.stepNanos[shard].Add(int64(d))
	hint := uint64(shard)
	m.steps.AddHint(hint, 1)
	m.stepSec.ObserveHint(hint, d.Seconds())
	m.tracer.Record(m.stepNames[shard], int64(interval), start, d)
}

// observeMergeWait records how long the merger blocked for its next slot.
func (m *pipelineMetrics) observeMergeWait(interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.mergeWaits.Add(1)
	m.mergeWaitNanos.Add(int64(d))
	m.mergeWait.Observe(d.Seconds())
	m.tracer.Record(spanMergeWait, int64(interval), start, d)
}

// observeDecode records one column decode.
func (m *pipelineMetrics) observeDecode(interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.decodeNanos.Add(int64(d))
	m.decodeSec.Observe(d.Seconds())
	m.tracer.Record(spanDecode, int64(interval), start, d)
}

// snapshot folds the cumulative counters into a ShardStats value.
func (m *pipelineMetrics) snapshot() ShardStats {
	st := ShardStats{
		Shards:           len(m.stepNanos),
		DecodeSeconds:    time.Duration(m.decodeNanos.Load()).Seconds(),
		MergeWaits:       m.mergeWaits.Load(),
		MergeWaitSeconds: time.Duration(m.mergeWaitNanos.Load()).Seconds(),
		StepSeconds:      make([]float64, len(m.stepNanos)),
	}
	for s := range m.stepNanos {
		st.StepSeconds[s] = time.Duration(m.stepNanos[s].Load()).Seconds()
	}
	return st
}
