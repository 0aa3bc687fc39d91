// Package shard is the run entry point the benchmark harness (perfbench)
// drives: RunSource evaluates a source across a given number of engine
// shards. The shard pipeline itself — partition, prefetching decoder, shard
// workers and in-order merger — is the engine's one run loop
// (core.Engine.RunSourceContext), and the shard count is core.Config.Workers;
// this package only maps its Options onto that knob.
package shard

import (
	"context"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/trace"
)

// Stats is the run pipeline's timing read (core.ShardStats).
type Stats = core.ShardStats

// Options shapes one run. The zero value (and a nil *Options) runs with one
// shard per CPU.
type Options struct {
	// Shards is the run's core.Config.Workers: 0 resolves to all CPUs.
	Shards int
	// Observer is the run's core.RunOptions.Observer.
	Observer core.RunObserver
}

// RunSource evaluates src under cfg with opts.Shards engine shards. The
// Result is bit-identical to core.Engine.RunSource for any shard count.
func RunSource(cfg core.Config, src trace.Source, opts *Options) (*core.Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	cfg.Workers = opts.Shards
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunSourceContext(context.Background(), src, &core.RunOptions{Observer: opts.Observer})
}
