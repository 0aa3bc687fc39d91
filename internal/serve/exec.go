package serve

import (
	"context"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/trace"
)

// Execute evaluates one validated request on fleet — exactly the library path
// the h2psim CLI drives, so an API-submitted run is bit-identical to the same
// run launched from the command line. The observer (typically the run's
// journal recorder) sees merged intervals in order.
//
// The request must have passed Validate (the parse entry points guarantee
// it); Execute opens a fresh trace source per call, so concurrent executions
// of the same request never share generator state.
func Execute(ctx context.Context, fleet *core.Fleet, req *RunRequest, traceDir string, observer core.RunObserver) (*core.Result, error) {
	cfg := req.EngineConfig()
	return fleet.RunSource(ctx, cfg, core.SourceRun{
		Open:   func() (trace.Source, error) { return req.Trace.Open(traceDir) },
		Scheme: cfg.Scheme,
		Opts:   &core.RunOptions{KeepSeries: req.KeepSeries, Observer: observer},
	})
}
