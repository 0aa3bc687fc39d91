package serve

import (
	"context"
	"io"

	"github.com/h2p-sim/h2p/internal/core"
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
	src, err := req.Trace.Open(traceDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if c, ok := src.(io.Closer); ok {
			c.Close() //nolint:errcheck // read side already drained or aborted
		}
	}()
	eng, err := fleet.Engine(req.EngineConfig())
	if err != nil {
		return nil, err
	}
	return eng.RunSourceContext(ctx, src, &core.RunOptions{
		KeepSeries: req.KeepSeries,
		Observer:   observer,
	})
}
