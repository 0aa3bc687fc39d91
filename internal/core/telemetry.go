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

// engineMetrics instruments each circulation step: its wall-clock latency,
// the circulation's mean outlet temperature and the fault counters. nil — the
// default when Config.Telemetry is nil — disables everything: a step pays one
// pointer test and never reads the clock.
type engineMetrics struct {
	steps      *telemetry.Counter
	stepSec    *telemetry.Histogram
	outletTemp *telemetry.Histogram
	tracer     *telemetry.Tracer

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

// newEngineMetrics registers the engine's instruments with reg: the
// per-circulation ones, and the run-level ones in the runMetrics every run
// of the engine copies. A nil registry yields nil and the zero runMetrics.
// Engines sharing one registry (a Fleet comparison run) share the same
// instruments by name and aggregate into one set of series.
func newEngineMetrics(reg *telemetry.Registry) (*engineMetrics, runMetrics) {
	if reg == nil {
		return nil, runMetrics{}
	}
	run := runMetrics{
		intervals: reg.Counter(metricIntervals, "control intervals evaluated"),
		intervalSec: reg.Histogram(metricIntervalSec, "wall-clock seconds per control interval",
			telemetry.ExponentialBuckets(1e-5, 4, 10)),
		circulations: reg.Gauge(metricCirculations, "circulations per interval"),
		harvestedPower: reg.Histogram(metricHarvestedPower, "datacenter-mean harvested TEG power per server, one observation per interval",
			telemetry.LinearBuckets(0, 1, 16)),
		maxCPUTemp: reg.Histogram(metricMaxCPUTemp, "hottest die across the datacenter, one observation per interval",
			telemetry.LinearBuckets(40, 2, 15)),
		checkpoints:   reg.Counter(metricCheckpoints, "engine checkpoints written at interval boundaries"),
		resumes:       reg.Counter(metricResumes, "runs resumed from a checkpoint"),
		resumeSkipped: reg.Counter(metricResumeSkipped, "intervals skipped (not re-simulated) by checkpoint resumes"),
		tracer:        reg.Tracer(telemetry.DefaultTraceCapacity),
	}
	return &engineMetrics{
		steps: reg.Counter(metricSteps, "circulation steps evaluated"),
		stepSec: reg.Histogram(metricStepSec, "wall-clock seconds per circulation step",
			telemetry.ExponentialBuckets(1e-6, 4, 10)),
		outletTemp: reg.Histogram(metricOutletTemp, "circulation mean coolant outlet temperature, one observation per step",
			telemetry.LinearBuckets(30, 2, 15)),
		tracer: run.tracer,

		faultOpenTEG:        reg.Counter(metricFaultOpenTEG, "open-circuit TEG module-intervals excluded from the harvest sum"),
		faultDegradedTEG:    reg.Counter(metricFaultDegradedTEG, "degradation-scaled TEG module-intervals"),
		faultPumpDroop:      reg.Counter(metricFaultPumpDroop, "circulation-intervals served below commanded flow"),
		faultSensorStale:    reg.Counter(metricFaultSensorStale, "outlet-sensor readings served from the last-good fallback"),
		faultSensorDegraded: reg.Counter(metricFaultSensorDegraded, "outlet-sensor fallbacks past the staleness bound"),
		faultStepRetries:    reg.Counter(metricFaultStepRetries, "circulation step retry attempts"),
		faultDegraded:       reg.Counter(metricFaultDegraded, "circulation-intervals degraded after exhausting retries"),
	}, run
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

// runMetrics is one run's event path and clock: RunSourceContext reports
// each event to it once, and it feeds the event to the registry's run-level
// instruments (the engine's, copied from Engine.run, and the shard ones,
// registered per run; nil-safe, and nil without a registry), to the counters
// behind ShardStats, and to the run's observer. nil when the run has neither
// a registry nor an observer, so the loop never reads the clock; results are
// bit-identical either way. The decoder, the shard workers and the merger
// report from their own goroutines; the observer only hears from the merger.
type runMetrics struct {
	intervals      *telemetry.Counter
	intervalSec    *telemetry.Histogram
	circulations   *telemetry.Gauge
	harvestedPower *telemetry.Histogram
	maxCPUTemp     *telemetry.Histogram
	checkpoints    *telemetry.Counter
	resumes        *telemetry.Counter
	resumeSkipped  *telemetry.Counter // intervals not re-simulated
	tracer         *telemetry.Tracer

	// Shard pipeline instruments, hinted by shard index so shards never
	// contend; the spans export as a per-shard timeline.
	shardSteps *telemetry.Counter
	stepSec    *telemetry.Histogram
	mergeWait  *telemetry.Histogram
	decodeSec  *telemetry.Histogram
	stepNames  []string

	stats *shardCounters
	obs   RunObserver
}

// newRunMetrics returns the event path for one run of e over nCircs
// circulations in shards shards, reporting to obs (which may be nil), and
// hands an obs that implements ShardStatsSink its reader. It returns nil
// when e has no registry and obs is nil.
func (e *Engine) newRunMetrics(nCircs, shards int, obs RunObserver) *runMetrics {
	reg := e.cfg.Telemetry
	if reg == nil && obs == nil {
		return nil
	}
	m := e.run
	m.obs = obs
	m.stats = &shardCounters{stepNanos: make([]atomic.Int64, shards)}
	if sink, ok := obs.(ShardStatsSink); ok {
		sink.AttachShardStats(m.stats.snapshot)
	}
	// Names are precomputed once per run so recording a span never
	// allocates.
	m.stepNames = make([]string, shards)
	for s := range m.stepNames {
		m.stepNames[s] = fmt.Sprintf("shard%02d.step", s)
	}
	if reg == nil {
		return &m
	}
	m.circulations.Set(float64(nCircs))
	m.shardSteps = reg.Counter(metricShardSteps, "shard-intervals stepped (intervals x shards)")
	m.stepSec = reg.Histogram(metricShardStepSec, "wall-clock seconds one shard spent stepping one interval",
		telemetry.ExponentialBuckets(1e-5, 4, 10))
	m.mergeWait = reg.Histogram(metricMergeWaitSec, "seconds the merger waited for its next in-order interval",
		telemetry.ExponentialBuckets(1e-7, 4, 10))
	m.decodeSec = reg.Histogram(metricDecodeSec, "seconds the decoder spent producing one column",
		telemetry.ExponentialBuckets(1e-6, 4, 10))
	reg.Gauge(metricShards, "engine shards in the run pipeline").Set(float64(shards))
	reg.Gauge(metricPrefetchDepth, "column prefetch pipeline depth (slots)").Set(pipelineDepth)
	return &m
}

// now reads the run's clock at the start of an event; the zero time on nil.
func (m *runMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// resume records a run resuming at interval start.
func (m *runMetrics) resume(start int) {
	if m == nil {
		return
	}
	m.resumes.Inc()
	m.resumeSkipped.Add(uint64(start))
	if m.obs != nil {
		m.obs.ObserveResume(start)
	}
}

// decode records one column decode.
func (m *runMetrics) decode(interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.stats.decodeNanos.Add(int64(d))
	m.decodeSec.Observe(d.Seconds())
	m.tracer.Record(spanDecode, int64(interval), start, d)
}

// step records one shard stepping one interval.
func (m *runMetrics) step(shard, interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.stats.stepNanos[shard].Add(int64(d))
	hint := uint64(shard)
	m.shardSteps.AddHint(hint, 1)
	m.stepSec.ObserveHint(hint, d.Seconds())
	m.tracer.Record(m.stepNames[shard], int64(interval), start, d)
}

// waited records how long the merger blocked for its next slot.
func (m *runMetrics) waited(interval int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.stats.mergeWaits.Add(1)
	m.stats.mergeWaitNanos.Add(int64(d))
	m.mergeWait.Observe(d.Seconds())
	m.tracer.Record(spanMergeWait, int64(interval), start, d)
}

// interval records one merged and folded control interval: its latency
// since decode start, the harvested-power and hottest-die series, an
// "interval" span, and the observer's ObserveInterval.
func (m *runMetrics) interval(i int, start time.Time, ir IntervalResult) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.intervals.Inc()
	m.intervalSec.Observe(d.Seconds())
	m.harvestedPower.Observe(float64(ir.TEGPowerPerServer))
	m.maxCPUTemp.Observe(float64(ir.MaxCPUTemp))
	m.tracer.Record(spanInterval, int64(i), start, d)
	if m.obs != nil {
		m.obs.ObserveInterval(i, ir)
	}
}

// checkpoint records one checkpoint written at an interval boundary, with a
// "checkpoint" span covering the drain-and-write window (the pipeline is
// parked on the gate for its duration).
func (m *runMetrics) checkpoint(done int, start time.Time) {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.tracer.Record(spanCheckpoint, int64(done), start, time.Since(start))
	if m.obs != nil {
		m.obs.ObserveCheckpoint(done)
	}
}

// halt reports the run stopping cleanly at its HaltAfter boundary.
func (m *runMetrics) halt(done int) {
	if m != nil && m.obs != nil {
		m.obs.ObserveHalt(done)
	}
}

// shardCounters is the pipeline's cumulative timing counters, all that a
// ShardStatsSink's reader holds: O(shards) words, never the engine. Each
// has one writer (the decoder, the merger, or the shard owning its
// stepNanos slot), and none moves once the pipeline has joined.
type shardCounters struct {
	decodeNanos    atomic.Int64
	mergeWaits     atomic.Int64
	mergeWaitNanos atomic.Int64
	stepNanos      []atomic.Int64
}

// snapshot folds the cumulative counters into a ShardStats value.
func (c *shardCounters) snapshot() ShardStats {
	st := ShardStats{
		Shards:           len(c.stepNanos),
		DecodeSeconds:    time.Duration(c.decodeNanos.Load()).Seconds(),
		MergeWaits:       c.mergeWaits.Load(),
		MergeWaitSeconds: time.Duration(c.mergeWaitNanos.Load()).Seconds(),
		StepSeconds:      make([]float64, len(c.stepNanos)),
	}
	for s := range c.stepNanos {
		st.StepSeconds[s] = time.Duration(c.stepNanos[s].Load()).Seconds()
	}
	return st
}
