package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/trace"
)

// DefaultPrefetch is the default column-prefetch pipeline depth: double
// buffering, so the decoder produces interval t+1 while the shards compute
// interval t.
const DefaultPrefetch = 2

// Options shapes one sharded run. The zero value (and a nil *Options) runs
// with one shard per CPU, double-buffered prefetch, no retained series and
// no checkpoints.
type Options struct {
	// Shards is the number of engine shards. 0 resolves through
	// core.ResolveParallelism (all CPUs); counts above the circulation
	// count clamp down so no shard is empty. Results are bit-identical for
	// any value.
	Shards int
	// Prefetch is the column pipeline depth in slots: how many intervals
	// the decoder may run ahead of the merger. 0 means DefaultPrefetch; 1
	// disables prefetch (decode and compute strictly alternate). Results
	// are bit-identical for any depth.
	Prefetch int
	// KeepSeries retains every IntervalResult in Result.Intervals, exactly
	// like core.RunOptions.KeepSeries.
	KeepSeries bool
	// OnInterval, when non-nil, observes each merged interval in interval
	// order from the merger goroutine.
	OnInterval func(interval int, ir core.IntervalResult)
	// Checkpoint enables periodic sharded checkpoints.
	Checkpoint *CheckpointOptions
	// Resume continues a sharded run from its checkpoint. The layout
	// (shard count and ranges) must match the resuming run's; mismatches
	// come back as *LayoutError before any simulation work.
	Resume *Checkpoint
	// HaltAfter, when positive, stops the run at the boundary after
	// interval HaltAfter-1 is merged, writes a checkpoint (if configured)
	// and returns core.ErrHalted — the same kill/resume drill the
	// unsharded engine runs.
	HaltAfter int
	// Observer, when non-nil, receives the same run-lifecycle callbacks the
	// unsharded loop delivers (core.RunOptions.Observer), from the merger
	// goroutine in interval order. An observer additionally implementing
	// StatsSink gets the pipeline's timing counters, and one implementing
	// core.CacheStatsSink gets the shard-summed decision-cache stats.
	// Results are bit-identical with or without an observer.
	Observer core.RunObserver
}

// CheckpointOptions configures periodic sharded checkpointing.
type CheckpointOptions struct {
	// Every is the checkpoint cadence in intervals, like
	// core.CheckpointOptions.Every.
	Every int
	// Write persists one sharded checkpoint. It is called from the merger
	// with every shard drained to the boundary (the decoder gates the
	// boundary interval until Write returns), so the snapshot is quiescent;
	// a Write error aborts the run.
	Write func(*Checkpoint) error
}

// shards resolves the option's shard count against n circulations.
func (o *Options) ranges(n int) []Range {
	if o == nil {
		return Partition(n, 0)
	}
	return Partition(n, o.Shards)
}

// slot is one pipeline stage: a decoded column and the global per-circulation
// contribution array every shard writes its range of. pending counts shards
// still stepping the slot; the shard that zeroes it hands the slot to the
// merger.
type slot struct {
	interval  int
	decodeErr error
	col       []float64
	parts     []core.CirculationInterval
	errs      []error
	pending   atomic.Int32
}

// RunSource evaluates a source under cfg across range-partitioned engine
// shards. See Run.
func RunSource(cfg core.Config, src trace.Source, opts *Options) (*core.Result, error) {
	return Run(context.Background(), nil, cfg, src, opts)
}

// Run is the sharded streaming run loop. It partitions the source's
// circulations into contiguous ranges (Partition), builds one engine per
// range on the fleet (own decision cache, batch scratch, fault-injector view;
// one shared immutable look-up space — a nil fleet gets a private one), and
// pipelines the run through three stages:
//
//	decoder:  pulls column t+1 from src while the shards compute t
//	          (Options.Prefetch slots of headroom, backpressured by the
//	          merger returning slots)
//	shards:   each steps its circulation range through the batched column
//	          kernel — no barrier and no shared mutable state between
//	          shards, so an interval's tail circulation never stalls the
//	          next interval's head
//	merger:   folds shard contributions in circulation order within each
//	          interval and interval order across the run, through the
//	          engine's own core.MergeInterval and core.Aggregator
//
// The Result is bit-identical to core.Engine.RunSource over the same source
// and configuration for every trace class, scheme, shard count, prefetch
// depth and fault plan (see the package comment for why, and the equivalence
// suites for the enforcement).
//
// Checkpoints drain the pipeline to the boundary: the decoder will not
// dispatch the boundary interval until the merger has snapshotted every
// shard and written the checkpoint, so per-shard sensor state is quiescent
// and the merged record is exactly what the unsharded engine would have
// written.
func Run(ctx context.Context, fleet *core.Fleet, cfg core.Config, src trace.Source, opts *Options) (*core.Result, error) {
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	nCircs := cfg.Circulations(meta.Servers)
	if nCircs == 0 {
		return nil, errors.New("shard: trace has no servers to form a circulation")
	}
	ranges := opts.ranges(nCircs)
	shards := len(ranges)
	prefetch := DefaultPrefetch
	if opts != nil && opts.Prefetch > 0 {
		prefetch = opts.Prefetch
	}
	if fleet == nil {
		fleet = core.NewFleet()
	}

	runners := make([]*core.ShardRunner, shards)
	for s, r := range ranges {
		eng, err := fleet.Engine(cfg)
		if err != nil {
			return nil, err
		}
		if runners[s], err = eng.NewShardRunner(meta.Servers, r.Lo, r.Hi); err != nil {
			return nil, err
		}
	}
	met := newShardMetrics(cfg.Telemetry, shards, prefetch)

	var obs core.RunObserver
	var stats *statsCollector
	if opts != nil && opts.Observer != nil {
		obs = opts.Observer
		if sink, ok := obs.(core.CacheStatsSink); ok {
			sink.AttachCacheStats(func() (hits, calls uint64) {
				for _, r := range runners {
					h, c := r.CacheStats()
					hits += h
					calls += c
				}
				return hits, calls
			})
		}
		if sink, ok := obs.(StatsSink); ok {
			stats = newStatsCollector(shards)
			sink.AttachShardStats(stats.snapshot)
		}
	}
	// timed gates the pipeline's clock reads: they exist for the telemetry
	// registry and/or the observer's stats, and are skipped entirely — no
	// time.Now anywhere in the pipeline — when neither is attached.
	timed := met != nil || stats != nil

	keepSeries := opts != nil && opts.KeepSeries
	agg := core.NewAggregator(meta, cfg, keepSeries)
	start := 0
	if opts != nil && opts.Resume != nil {
		cp := opts.Resume
		if err := cp.validateFor(meta, cfg, ranges, keepSeries); err != nil {
			return nil, err
		}
		start = cp.Merged.NextInterval
		agg.Restore(&cp.Merged)
		for s := range runners {
			if err := runners[s].RestoreSensorStates(cp.PerShard[s].Sensors); err != nil {
				return nil, err
			}
		}
		if err := trace.Skip(src, start); err != nil {
			return nil, err
		}
		if obs != nil {
			obs.ObserveResume(start)
		}
	}

	// The halt boundary, resolved the way the unsharded loop would hit it:
	// the first boundary at or past HaltAfter that is not the end of the
	// trace. It doubles as the decoder's end bound — intervals past it are
	// never decoded.
	end := meta.Intervals
	haltDone := 0
	if opts != nil && opts.HaltAfter > 0 {
		haltDone = opts.HaltAfter
		if haltDone <= start {
			haltDone = start + 1
		}
		if haltDone >= meta.Intervals {
			haltDone = 0
		} else {
			end = haltDone
		}
	}
	cpEnabled := opts != nil && opts.Checkpoint != nil && opts.Checkpoint.Write != nil
	boundary := func(done int) bool {
		if !cpEnabled {
			return false
		}
		if haltDone > 0 && done == haltDone {
			return true
		}
		every := opts.Checkpoint.Every
		return every > 0 && done%every == 0 && done < meta.Intervals
	}

	free := make(chan *slot, prefetch)
	for k := 0; k < prefetch; k++ {
		sl := &slot{
			col:   make([]float64, meta.Servers),
			parts: make([]core.CirculationInterval, nCircs),
			errs:  make([]error, nCircs),
		}
		free <- sl
	}
	work := make([]chan *slot, shards)
	for s := range work {
		work[s] = make(chan *slot, prefetch)
	}
	mergeCh := make(chan *slot, prefetch)
	gate := make(chan struct{}, 1)

	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // after cancel below: stop the pipeline, then join it
	defer cancel()

	// Decoder: the only goroutine touching src (sources are single-stream
	// state). It runs up to prefetch intervals ahead — the free channel is
	// the backpressure — and parks at checkpoint boundaries until the
	// merger's snapshot is durable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, ch := range work {
				close(ch)
			}
		}()
		for i := start; i < end; i++ {
			if i > start && boundary(i) {
				select {
				case <-gate:
				case <-ctx.Done():
					return
				}
			}
			var sl *slot
			select {
			case sl = <-free:
			case <-ctx.Done():
				return
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			got, err := src.NextColumn(sl.col)
			if err != nil {
				err = fmt.Errorf("shard: source at interval %d: %w", i, err)
			} else if got != i {
				err = fmt.Errorf("shard: source delivered interval %d, want %d", got, i)
			}
			sl.interval = i
			sl.decodeErr = err
			if err != nil {
				sl.pending.Store(0)
				select {
				case mergeCh <- sl:
				case <-ctx.Done():
				}
				return
			}
			met.observeDecode(i, t0)
			stats.observeDecode(t0)
			sl.pending.Store(int32(shards))
			for _, ch := range work {
				select {
				case ch <- sl:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Shard workers: one goroutine per shard, each the sole owner of its
	// runner. The last shard to finish a slot hands it to the merger —
	// slots can therefore arrive out of interval order, which the merger
	// reorders below.
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := ranges[s]
			runner := runners[s]
			for {
				var sl *slot
				select {
				case got, ok := <-work[s]:
					if !ok {
						return
					}
					sl = got
				case <-ctx.Done():
					return
				}
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				runner.Step(sl.col, sl.interval, sl.parts[r.Lo:r.Hi], sl.errs[r.Lo:r.Hi])
				met.observeStep(s, sl.interval, t0)
				stats.observeStep(s, t0)
				if sl.pending.Add(-1) == 0 {
					select {
					case mergeCh <- sl:
					case <-ctx.Done():
						return
					}
				}
			}
		}(s)
	}

	// Merger, on the caller's goroutine: fold intervals strictly in order,
	// buffering early arrivals, and surface the same errors at the same
	// intervals the unsharded loop would.
	early := make(map[int]*slot, prefetch)
	for i := start; i < end; i++ {
		sl, ok := early[i]
		if ok {
			delete(early, i)
		} else {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			for sl == nil {
				select {
				case got := <-mergeCh:
					if got.interval == i {
						sl = got
					} else {
						early[got.interval] = got
					}
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			met.observeMergeWait(i, t0)
			stats.observeMergeWait(t0)
		}
		if sl.decodeErr != nil {
			return nil, sl.decodeErr
		}
		for ci, serr := range sl.errs {
			if serr != nil {
				return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, serr)
			}
		}
		ir := core.MergeInterval(sl.col, sl.parts)
		agg.Fold(ir)
		if opts != nil && opts.OnInterval != nil {
			opts.OnInterval(i, ir)
		}
		if obs != nil {
			obs.ObserveInterval(i, ir)
		}
		free <- sl

		done := i + 1
		if boundary(done) {
			// Quiescent by construction: every interval < done has been
			// merged (so every shard finished stepping it), and the decoder
			// is parked on the gate (or, at the halt boundary, past its end
			// bound), so no shard has seen interval done.
			var t0 time.Time
			if met != nil {
				t0 = time.Now()
			}
			cp := checkpointAt(agg, ranges, runners)
			if err := opts.Checkpoint.Write(cp); err != nil {
				return nil, fmt.Errorf("shard: checkpoint at interval %d: %w", done, err)
			}
			met.observeCheckpoint(done, t0)
			if obs != nil {
				obs.ObserveCheckpoint(done)
			}
			if done != haltDone {
				select {
				case gate <- struct{}{}:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		if haltDone > 0 && done == haltDone {
			if obs != nil {
				obs.ObserveHalt(done)
			}
			return nil, core.ErrHalted
		}
	}
	return agg.Finalize(), nil
}

// checkpointAt freezes the sharded run at the merger's current boundary. The
// merged record's sensors are the shard snapshots concatenated in global
// circulation order, so it is exactly the checkpoint the unsharded engine
// would write at this boundary. Its size is O(circulations), independent of
// the intervals elapsed.
func checkpointAt(agg *core.Aggregator, ranges []Range, runners []*core.ShardRunner) *Checkpoint {
	merged := agg.Checkpoint()
	per := make([]ShardState, len(ranges))
	sensors := make([]hydro.SensorState, 0, cap(merged.Sensors))
	for s, r := range ranges {
		st := runners[s].SensorStates()
		per[s] = ShardState{Range: r, Sensors: st}
		sensors = append(sensors, st...)
	}
	merged.Sensors = sensors
	return &Checkpoint{
		Version:  CheckpointVersion,
		Shards:   len(ranges),
		Ranges:   ranges,
		Merged:   *merged,
		PerShard: per,
	}
}
