package core

// RunObserver receives run-lifecycle callbacks from the streaming run loop
// (RunSourceContext): one call per merged interval, plus checkpoint, resume
// and halt boundaries. It is the seam the observability layer (internal/obs)
// hangs its run journal on — pure observation, never steering: the engine
// ignores everything an observer does, so simulation results are
// bit-identical with an observer attached or not.
//
// Callbacks arrive from the run's merging goroutine in interval order, never
// concurrently for one run; an observer shared between runs must synchronize
// internally.
type RunObserver interface {
	// ObserveInterval fires after interval i has been merged and folded.
	ObserveInterval(interval int, ir IntervalResult)
	// ObserveCheckpoint fires after a checkpoint covering the first done
	// intervals was durably written.
	ObserveCheckpoint(done int)
	// ObserveResume fires once, before the first interval, when the run
	// resumes from a checkpoint at interval start.
	ObserveResume(start int)
	// ObserveHalt fires when the run stops cleanly at its HaltAfter
	// boundary (ErrHalted), after the boundary checkpoint was written.
	ObserveHalt(done int)
}

// CacheStatsSink is optionally implemented by a RunObserver that wants the
// decision hit rate (sched.Controller.CacheStats) in its progress records. The run loop hands it a
// live lifetime (hits, calls) reader over the run's controller before the
// first interval; the observer may call it at any point during the run. When
// the run returns — on every exit path, after its pipeline has joined — the
// run loop attaches a second, frozen reader that returns the run's final
// counts and holds no reference to the engine.
type CacheStatsSink interface {
	AttachCacheStats(stats func() (hits, calls uint64))
}

// ShardStats is a point-in-time read of the run pipeline's timing counters,
// handed to a run observer that implements ShardStatsSink. It quantifies the
// pipeline's health independent of the telemetry registry: cumulative decode
// time, merger stalls (the pipeline's bubbles) and per-shard step time.
type ShardStats struct {
	// Shards is the run's shard count; StepSeconds has one entry per shard.
	Shards int `json:"shards"`
	// DecodeSeconds is the cumulative wall time the decoder spent producing
	// columns.
	DecodeSeconds float64 `json:"decode_seconds"`
	// MergeWaits counts intervals the merger had to block for; the
	// difference to intervals merged is how often the pipeline was ahead.
	MergeWaits int64 `json:"merge_waits"`
	// MergeWaitSeconds is the cumulative wall time the merger spent blocked
	// waiting for its next in-order interval.
	MergeWaitSeconds float64 `json:"merge_wait_seconds"`
	// StepSeconds is each shard's cumulative stepping wall time — the skew
	// between entries is the load imbalance across the partition.
	StepSeconds []float64 `json:"step_seconds"`
}

// ShardStatsSink is optionally implemented by a RunObserver passed in
// RunOptions.Observer: the run loop hands it a ShardStats reader before the
// first interval, and the observer may call it whenever it records progress.
// The reader holds only the run's cumulative counters, never the engine, and
// once the run returns (its pipeline joined) it reads the run's final
// ShardStats.
type ShardStatsSink interface {
	AttachShardStats(stats func() ShardStats)
}
