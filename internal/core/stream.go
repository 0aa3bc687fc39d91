package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/h2p-sim/h2p/internal/trace"
)

// ErrHalted reports a run that stopped at the RunOptions.HaltAfter interval
// boundary after writing its checkpoint. It is a clean, resumable stop, not
// a failure.
var ErrHalted = errors.New("core: run halted at checkpoint boundary")

// RunOptions shapes one streaming run. The zero value (and a nil *RunOptions)
// is the bounded-memory default: no retained series, no checkpoints.
type RunOptions struct {
	// KeepSeries retains every IntervalResult in Result.Intervals, like the
	// in-memory Run API always did. Off, the run's working set is O(servers)
	// regardless of trace length; the summary aggregates are bit-identical
	// either way.
	KeepSeries bool
	// OnInterval, when non-nil, observes each merged interval as it
	// completes — the streaming alternative to reading Result.Intervals.
	OnInterval func(interval int, ir IntervalResult)
	// Checkpoint enables periodic checkpoints.
	Checkpoint *CheckpointOptions
	// Resume continues a checkpointed run instead of starting at interval 0.
	// The resumed run's Result (and, with KeepSeries, its series) is
	// bit-identical to the uninterrupted run's.
	Resume *Checkpoint
	// HaltAfter, when positive, stops the run at the boundary after interval
	// HaltAfter-1 is merged, writes a checkpoint (if configured) and returns
	// ErrHalted. It exists to exercise kill/resume deterministically; a run
	// whose HaltAfter is at or past the end never halts.
	HaltAfter int
	// Observer, when non-nil, receives run-lifecycle callbacks (merged
	// intervals, checkpoints, resume, halt) — the hook the run journal
	// (internal/obs) attaches through. nil costs one pointer test per
	// interval; results are bit-identical either way.
	Observer RunObserver
}

// CheckpointOptions configures periodic checkpointing.
type CheckpointOptions struct {
	// Every is the checkpoint cadence in intervals (a checkpoint lands at
	// every boundary where the completed-interval count is a multiple of
	// Every). Non-positive disables the cadence; a HaltAfter boundary still
	// checkpoints.
	Every int
	// Write persists one checkpoint. It is called at interval boundaries,
	// after the interval's workers have joined, so the snapshot is
	// quiescent; a Write error aborts the run.
	Write func(*Checkpoint) error
}

// keepSeries reports whether the options retain the interval series.
func (o *RunOptions) keepSeries() bool { return o != nil && o.KeepSeries }

// RunSource evaluates a source under the engine's configuration. See
// RunSourceContext.
func (e *Engine) RunSource(src trace.Source, opts *RunOptions) (*Result, error) {
	return e.RunSourceContext(context.Background(), src, opts)
}

// RunSourceContext is the engine's streaming run loop: it pulls one column
// at a time from src, fans each interval's circulations out across the
// configured worker pool, and folds every interval into running aggregates.
// Its working set is O(servers) — independent of the trace length — unless
// opts retains the series.
//
// Bit-identity: the per-interval arithmetic and the aggregation order are
// exactly those of the in-memory path (RunContext is a thin adapter over
// this function), so for any source, scheme, worker count and fault plan the
// Result matches Materialize(src) run through the legacy API bit for bit.
//
// Checkpoint/resume: with opts.Checkpoint set, the run snapshots itself at
// interval boundaries; a later run given the snapshot as opts.Resume skips
// the completed prefix and continues, producing a bit-identical Result. On
// sources with random access (those implementing SeekInterval, like
// TraceSource) the skip is O(1); otherwise the source replays and discards
// the prefix columns, still with O(servers) memory.
func (e *Engine) RunSourceContext(ctx context.Context, src trace.Source, opts *RunOptions) (*Result, error) {
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	circs := e.circulations(meta.Servers)
	if len(circs) == 0 {
		// Guarded independently of the source's validation so a degenerate
		// shape can never NaN-poison the per-circulation means.
		return nil, errors.New("core: trace has no servers to form a circulation")
	}
	keepSeries := opts.keepSeries()
	// The running aggregates fold in interval order — the same order the
	// legacy path summed its retained series in — so no floating-point sum is
	// ever reassociated. The Aggregator is shared with the sharded merger
	// (internal/shard), which is what keeps the two paths bit-identical.
	agg := NewAggregator(meta, e.cfg, keepSeries)
	var obs RunObserver
	if opts != nil && opts.Observer != nil {
		obs = opts.Observer
		if sink, ok := obs.(CacheStatsSink); ok {
			sink.AttachCacheStats(e.controller.CacheStats)
		}
	}
	start := 0
	if opts != nil && opts.Resume != nil {
		cp := opts.Resume
		if err := cp.ValidateFor(meta, e.cfg, len(circs), keepSeries); err != nil {
			return nil, err
		}
		start = cp.NextInterval
		agg.Restore(cp)
		for ci := range circs {
			circs[ci].sensor.SetState(cp.Sensors[ci])
		}
		if err := trace.Skip(src, start); err != nil {
			return nil, err
		}
		e.met.observeResume(start)
		if obs != nil {
			obs.ObserveResume(start)
		}
	}

	workers := e.cfg.workers()
	if workers > len(circs) {
		workers = len(circs)
	}
	if m := e.met; m != nil {
		m.workers.Set(float64(workers))
		m.circulations.Set(float64(len(circs)))
	}
	batch := !e.cfg.DisableBatch
	col := make([]float64, meta.Servers)
	parts := make([]CirculationInterval, len(circs))
	errs := make([]error, len(circs))
	states := make([]workerState, workers)
	for i := start; i < meta.Intervals; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		got, err := src.NextColumn(col)
		if err != nil {
			return nil, fmt.Errorf("core: source at interval %d: %w", i, err)
		}
		if got != i {
			return nil, fmt.Errorf("core: source delivered interval %d, want %d", got, i)
		}
		var t0 time.Time
		if e.met != nil {
			t0 = time.Now()
		}
		if workers <= 1 {
			if batch {
				// One block spanning the datacenter: a single column call
				// with maximal cache-probe dedup across circulations.
				stepBlock(circs, 0, len(circs), col, i, &states[0], parts, errs)
				for ci, serr := range errs {
					if serr != nil {
						return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, serr)
					}
				}
			} else {
				for ci := range circs {
					if parts[ci], err = circs[ci].Step(col, i); err != nil {
						return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, err)
					}
				}
			}
		} else if err := stepParallel(ctx, circs, col, i, workers, e.met, states, batch, parts, errs); err != nil {
			return nil, err
		} else {
			for ci, serr := range errs {
				if serr != nil {
					return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, serr)
				}
			}
		}
		ir := mergeInterval(col, parts)
		e.met.observeInterval(i, t0, ir)
		agg.Fold(ir)
		if opts != nil && opts.OnInterval != nil {
			opts.OnInterval(i, ir)
		}
		if obs != nil {
			obs.ObserveInterval(i, ir)
		}

		done := i + 1
		halt := opts != nil && opts.HaltAfter > 0 && done >= opts.HaltAfter && done < meta.Intervals
		if opts != nil && opts.Checkpoint != nil && opts.Checkpoint.Write != nil {
			every := opts.Checkpoint.Every
			if halt || (every > 0 && done%every == 0 && done < meta.Intervals) {
				cp := e.snapshot(agg, circs)
				if err := opts.Checkpoint.Write(cp); err != nil {
					return nil, fmt.Errorf("core: checkpoint at interval %d: %w", done, err)
				}
				e.met.observeCheckpoint()
				if obs != nil {
					obs.ObserveCheckpoint(done)
				}
			}
		}
		if halt {
			if obs != nil {
				obs.ObserveHalt(done)
			}
			return nil, ErrHalted
		}
	}
	return agg.Finalize(), nil
}
