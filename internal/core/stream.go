package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/h2p-sim/h2p/internal/hydro"

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
	// (internal/obs) attaches through. An observer additionally implementing
	// CacheStatsSink gets the decision counts, and one implementing
	// ShardStatsSink gets the pipeline's timing counters. nil costs one
	// pointer test per interval; results are bit-identical either way.
	Observer RunObserver
}

// CheckpointOptions configures periodic checkpointing.
type CheckpointOptions struct {
	// Every is the checkpoint cadence in intervals (a checkpoint lands at
	// every boundary where the completed-interval count is a multiple of
	// Every). Non-positive disables the cadence; a HaltAfter boundary still
	// checkpoints.
	Every int
	// Write persists one checkpoint. It is called from the merger with
	// every shard drained to the boundary (the decoder does not dispatch the
	// boundary interval until Write returns), so the snapshot is quiescent;
	// a Write error aborts the run.
	Write func(*Checkpoint) error
}

// pipelineDepth is the run loop's column-prefetch depth in slots: double
// buffering, so the decoder produces interval t+1 while the shards compute
// interval t. Results do not depend on it.
const pipelineDepth = 2

// RunSource evaluates a source under the engine's configuration. See
// RunSourceContext.
func (e *Engine) RunSource(src trace.Source, opts *RunOptions) (*Result, error) {
	return e.RunSourceContext(context.Background(), src, opts)
}

// slot is one pipeline stage: a decoded column and the global
// per-circulation contribution array every shard writes its range of.
// pending counts shards still stepping the slot; the shard that zeroes it
// hands the slot to the merger.
type slot struct {
	interval  int
	start     time.Time // decode start (zero when the run reads no clock)
	decodeErr error
	col       []float64
	parts     []CirculationInterval
	errs      []error
	pending   atomic.Int32
}

// RunSourceContext is the engine's run loop. It partitions the source's
// circulations into Config.Workers contiguous ranges (Partition), builds one
// ShardRunner per range on this engine, and pipelines the run through three
// stages:
//
//	decoder:  pulls column t+1 from src while the shards compute t
//	          (pipelineDepth slots of headroom, backpressured by the
//	          merger returning slots)
//	shards:   each steps its circulation range through the batched column
//	          kernel — no barrier between shards, so an interval's tail
//	          circulation never stalls the next interval's head
//	merger:   on the caller's goroutine, folds shard contributions in
//	          circulation order within each interval and interval order
//	          across the run, through MergeInterval and the Aggregator
//
// Its working set is O(servers) — independent of the trace length — unless
// opts retains the series.
//
// Bit-identity: the decision kernel is grouping-invariant, every circulation
// keeps its global index and fault identity inside its shard, and the merge
// and fold never reassociate a floating-point sum, so the Result is
// bit-identical for every source, scheme, worker count and fault plan.
//
// Checkpoint/resume: with opts.Checkpoint set, the run snapshots itself at
// interval boundaries; a later run given the snapshot as opts.Resume — under
// any worker count — skips the completed prefix and continues, producing a
// bit-identical Result. Checkpoints drain the pipeline to the boundary: the
// decoder does not dispatch the boundary interval until the merger has
// written the checkpoint. On sources with random access (those implementing
// SeekInterval, like TraceSource) the skip is O(1); otherwise the source
// replays and discards the prefix columns, still with O(servers) memory.
func (e *Engine) RunSourceContext(ctx context.Context, src trace.Source, opts *RunOptions) (*Result, error) {
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	nCircs := e.cfg.Circulations(meta.Servers)
	if nCircs == 0 {
		// Guarded independently of the source's validation so a degenerate
		// shape can never NaN-poison the per-circulation means.
		return nil, errors.New("core: trace has no servers to form a circulation")
	}
	if opts == nil {
		opts = &RunOptions{}
	}
	ranges := Partition(nCircs, e.cfg.Workers)
	shards := len(ranges)
	runners := make([]*ShardRunner, shards)
	for s, r := range ranges {
		runners[s] = &ShardRunner{eng: e, circs: e.circulationsRange(meta.Servers, r.Lo, r.Hi)}
	}
	// rm is the run's one event path and clock; nil (and never reading the
	// clock) with neither a registry nor an observer.
	rm := e.newRunMetrics(nCircs, shards, opts.Observer)
	// The decision-count sink gets a live reader for the run. It reads the
	// controller, which would pin the engine, its space and its power
	// curve, so the
	// deferred re-attach — after the pipeline's join below (defers unwind in
	// reverse), on every exit path — swaps in the run's final counts. The
	// shard reader needs no swap: it holds only the run's O(shards)
	// counters, which stop moving once the pipeline has joined.
	if sink, ok := opts.Observer.(CacheStatsSink); ok {
		sink.AttachCacheStats(e.controller.CacheStats)
		defer func() {
			hits, calls := e.controller.CacheStats()
			sink.AttachCacheStats(func() (uint64, uint64) { return hits, calls })
		}()
	}

	// The running aggregates fold in interval order, so no floating-point
	// sum is ever reassociated.
	agg := NewAggregator(meta, e.cfg, opts.KeepSeries)
	start := 0
	if cp := opts.Resume; cp != nil {
		if err := cp.ValidateFor(meta, e.cfg, nCircs, opts.KeepSeries); err != nil {
			return nil, err
		}
		start = cp.NextInterval
		agg.Restore(cp)
		for s, r := range ranges {
			if err := runners[s].RestoreSensorStates(cp.Sensors[r.Lo:r.Hi]); err != nil {
				return nil, err
			}
		}
		if err := trace.Skip(src, start); err != nil {
			return nil, err
		}
		rm.resume(start)
	}

	// The halt boundary: the first boundary at or past HaltAfter that is
	// not the end of the trace. It doubles as the decoder's end bound —
	// intervals past it are never decoded.
	end := meta.Intervals
	haltDone := 0
	if opts.HaltAfter > 0 {
		haltDone = max(opts.HaltAfter, start+1)
		if haltDone >= meta.Intervals {
			haltDone = 0
		} else {
			end = haltDone
		}
	}
	cpo := opts.Checkpoint
	if cpo != nil && cpo.Write == nil {
		cpo = nil
	}
	boundary := func(done int) bool {
		if cpo == nil {
			return false
		}
		if haltDone > 0 && done == haltDone {
			return true
		}
		return cpo.Every > 0 && done%cpo.Every == 0 && done < meta.Intervals
	}

	free := make(chan *slot, pipelineDepth)
	for k := 0; k < pipelineDepth; k++ {
		free <- &slot{
			col:   make([]float64, meta.Servers),
			parts: make([]CirculationInterval, nCircs),
			errs:  make([]error, nCircs),
		}
	}
	// Only pipelineDepth slots exist and every channel below holds that
	// many, so sending a slot never blocks.
	work := make([]chan *slot, shards)
	for s := range work {
		work[s] = make(chan *slot, pipelineDepth)
	}
	mergeCh := make(chan *slot, pipelineDepth)
	gate := make(chan struct{}, 1)

	// stop ends the pipeline when the merger returns, for any reason.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait() // after close(stop) below: stop the pipeline, then join it
	defer close(stop)

	// Decoder: the only goroutine touching src (sources are single-stream
	// state). It runs up to pipelineDepth intervals ahead — the free channel
	// is the backpressure — and parks at checkpoint boundaries until the
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
				case <-stop:
					return
				}
			}
			var sl *slot
			select {
			case sl = <-free:
			case <-stop:
				return
			}
			sl.start = rm.now()
			got, err := src.NextColumn(sl.col)
			if err != nil {
				err = fmt.Errorf("core: source at interval %d: %w", i, err)
			} else if got != i {
				err = fmt.Errorf("core: source delivered interval %d, want %d", got, i)
			}
			sl.interval = i
			sl.decodeErr = err
			if err != nil {
				mergeCh <- sl
				return
			}
			rm.decode(i, sl.start)
			sl.pending.Store(int32(shards))
			for _, ch := range work {
				ch <- sl
			}
		}
	}()

	// Shard workers: one goroutine per shard, each the sole owner of its
	// runner. The last shard to finish a slot hands it to the merger —
	// slots can therefore arrive out of interval order, which the merger
	// reorders below.
	for s := range runners {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r, runner := ranges[s], runners[s]
			for sl := range work[s] {
				select {
				case <-stop:
					return
				default:
				}
				t0 := rm.now()
				runner.Step(sl.col, sl.interval, sl.parts[r.Lo:r.Hi], sl.errs[r.Lo:r.Hi])
				rm.step(s, sl.interval, t0)
				if sl.pending.Add(-1) == 0 {
					mergeCh <- sl
				}
			}
		}(s)
	}

	// Merger: fold intervals strictly in order, buffering early arrivals.
	early := make(map[int]*slot, pipelineDepth)
	for i := start; i < end; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sl, ok := early[i]
		if ok {
			delete(early, i)
		} else {
			t0 := rm.now()
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
			rm.waited(i, t0)
		}
		if sl.decodeErr != nil {
			return nil, sl.decodeErr
		}
		for ci, serr := range sl.errs {
			if serr != nil {
				return nil, fmt.Errorf("interval %d circulation %d: %w", i, ci, serr)
			}
		}
		ir := MergeInterval(sl.col, sl.parts)
		agg.Fold(ir)
		rm.interval(i, sl.start, ir)
		free <- sl

		done := i + 1
		if boundary(done) {
			// Quiescent by construction: every interval < done has been
			// merged (so every shard finished stepping it), and the decoder
			// is parked on the gate (or, at the halt boundary, past its end
			// bound), so no shard has seen interval done.
			t0 := rm.now()
			if err := cpo.Write(checkpointAt(agg, runners, nCircs)); err != nil {
				return nil, fmt.Errorf("core: checkpoint at interval %d: %w", done, err)
			}
			rm.checkpoint(done, t0)
			if done != haltDone {
				gate <- struct{}{}
			}
		}
		if haltDone > 0 && done == haltDone {
			rm.halt(done)
			return nil, ErrHalted
		}
	}
	return agg.Finalize(), nil
}

// checkpointAt freezes the run at the merger's current boundary: the fold's
// aggregates plus every shard's sensor snapshots, concatenated in global
// circulation order — so the checkpoint does not depend on the shard layout
// and resumes under any worker count. Its size is O(circulations),
// independent of the intervals elapsed.
func checkpointAt(agg *Aggregator, runners []*ShardRunner, circulations int) *Checkpoint {
	cp := agg.Checkpoint()
	cp.Sensors = make([]hydro.SensorState, 0, circulations)
	for _, r := range runners {
		cp.Sensors = append(cp.Sensors, r.SensorStates()...)
	}
	return cp
}
