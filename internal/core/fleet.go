package core

import (
	"context"
	"errors"
	"io"
	"math"
	"slices"
	"sync"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// Fleet is the top layer of the engine: it runs whole trace x scheme
// combinations concurrently and memoizes one immutable look-up space per
// (CPU spec, axes), so evaluating two schemes over three traces fits the
// measurement campaign once instead of six times. A Fleet is safe for
// concurrent use; the spaces it hands out are read-only (see lookup.Space).
type Fleet struct {
	mu     sync.Mutex
	spaces []fleetSpace
}

// fleetSpace is one memoized look-up space and the grid it was built for.
type fleetSpace struct {
	spec  cpu.Spec
	axes  lookup.Axes
	space *lookup.Space
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet { return &Fleet{} }

// Space returns the memoized look-up space for spec and axes, building and
// caching it on first use. Spaces are immutable after Build, so one space
// may back any number of concurrent engines. Axes match when their nodes
// have the same bits: the same Build input.
func (f *Fleet) Space(spec cpu.Spec, axes lookup.Axes) (*lookup.Space, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.spaces {
		if s.spec == spec && sameNodes(s.axes.Utilization, axes.Utilization) &&
			sameNodes(s.axes.Flow, axes.Flow) && sameNodes(s.axes.Inlet, axes.Inlet) {
			return s.space, nil
		}
	}
	space, err := lookup.Build(spec, axes)
	if err != nil {
		return nil, err
	}
	f.spaces = append(f.spaces, fleetSpace{spec: spec, axes: axes, space: space})
	return space, nil
}

// sameNodes reports whether two axes hold bit-identical nodes.
func sameNodes(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Engine builds an engine for cfg backed by the fleet's shared space.
func (f *Fleet) Engine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	space, err := f.Space(cfg.Spec, cfg.Axes)
	if err != nil {
		return nil, err
	}
	return newEngineWithSpace(cfg, space)
}

// CompareContext runs the trace under both schemes concurrently with
// otherwise identical configuration and returns (original, loadBalance),
// each with its interval series retained. Results are bit-identical to
// running two serial engines back-to-back.
func (f *Fleet) CompareContext(ctx context.Context, tr *trace.Trace, base Config) (*Result, *Result, error) {
	orig, lb, err := f.EvaluateContext(ctx, []*trace.Trace{tr}, base)
	if err != nil {
		return nil, nil, err
	}
	return orig[0], lb[0], nil
}

// EvaluateContext runs every trace under both schemes concurrently through
// RunSourcesContext, each run reading its own TraceSource over the shared
// matrix with the interval series retained, and returns the results in
// trace order.
func (f *Fleet) EvaluateContext(ctx context.Context, traces []*trace.Trace, base Config) (orig, lb []*Result, err error) {
	opts := &RunOptions{KeepSeries: true}
	runs := make([]SourceRun, 0, 2*len(traces))
	for _, tr := range traces {
		open := func() (trace.Source, error) { return trace.NewTraceSource(tr) }
		runs = append(runs,
			SourceRun{Open: open, Scheme: sched.Original, Opts: opts},
			SourceRun{Open: open, Scheme: sched.LoadBalance, Opts: opts},
		)
	}
	results, err := f.RunSourcesContext(ctx, base, runs)
	if err != nil {
		return nil, nil, err
	}
	orig = make([]*Result, len(traces))
	lb = make([]*Result, len(traces))
	for i := range traces {
		orig[i], lb[i] = results[2*i], results[2*i+1]
	}
	return orig, lb, nil
}

// SourceOpener produces the trace.Source one run reads: a fresh, private
// source, or one branch of a source the runs share through trace.Tee. The
// fleet closes sources that implement io.Closer when their run finishes, on
// every exit path, so a failed run never holds back a sibling sharing its
// decode.
type SourceOpener func() (trace.Source, error)

// SourceRun is one streaming trace x scheme combination: its source, the
// scheme, and the run's options (series retention, checkpoint/resume).
type SourceRun struct {
	Open   SourceOpener
	Scheme sched.Scheme
	Opts   *RunOptions
}

// RunSourcesContext evaluates every streaming run concurrently, one
// goroutine per run, each internally spread across base.Workers shards, and
// returns the results in run order.
//
// A run stopping at its HaltAfter boundary (ErrHalted) is a clean outcome,
// not a failure: it neither cancels its siblings nor preempts their results.
// Its slot stays nil and, once every run has finished, the aggregate error
// is ErrHalted so the caller knows the batch is resumable. Real errors
// cancel the batch and win over both halts and cancellations.
func (f *Fleet) RunSourcesContext(ctx context.Context, base Config, runs []SourceRun) ([]*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	wg.Add(len(runs))
	for i, r := range runs {
		go func(i int, r SourceRun) {
			defer wg.Done()
			res, err := f.RunSource(ctx, base, r)
			if err != nil {
				errs[i] = err
				if !errors.Is(err, ErrHalted) {
					cancel()
				}
				return
			}
			results[i] = res
		}(i, r)
	}
	wg.Wait()
	var firstCancel, firstHalt error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrHalted):
			if firstHalt == nil {
				firstHalt = err
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if firstCancel == nil {
				firstCancel = err
			}
		default:
			return results, err
		}
	}
	if firstCancel != nil {
		return results, firstCancel
	}
	return results, firstHalt
}

// RunSource evaluates one run on an engine built for base with the run's
// scheme: it opens the run's source, runs it, and closes the source whatever
// the outcome — an engine build failure included.
func (f *Fleet) RunSource(ctx context.Context, base Config, r SourceRun) (res *Result, err error) {
	src, err := r.Open()
	if err != nil {
		return nil, err
	}
	if c, ok := src.(io.Closer); ok {
		defer func() {
			if cerr := c.Close(); cerr != nil && err == nil {
				res, err = nil, cerr
			}
		}()
	}
	cfg := base
	cfg.Scheme = r.Scheme
	eng, err := f.Engine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunSourceContext(ctx, src, r.Opts)
}
