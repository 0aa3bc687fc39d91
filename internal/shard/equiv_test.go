package shard

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// The shard-count matrix: both schedulers, every power-of-two shard count,
// and a shard count past the circulation count (clamps). The referee is the
// engine's one-shard run; the core package pins that against its serial
// reference loop.
var (
	equivSchemes = []sched.Scheme{sched.Original, sched.LoadBalance}
	equivShards  = []int{1, 2, 4, 8, 64}
)

// shardConfig is the test configuration: 5-server circulations so a 60-server
// trace forms 12 circulations — enough to give 8 shards distinct ranges.
func shardConfig(scheme sched.Scheme) core.Config {
	cfg := core.DefaultConfig(scheme)
	cfg.ServersPerCirculation = 5
	return cfg
}

// engineRun runs the generator source through the engine at cfg.Workers.
func engineRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *core.RunOptions) *core.Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// oneShardRun is the referee: the engine with a single shard.
func oneShardRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *core.RunOptions) *core.Result {
	t.Helper()
	cfg.Workers = 1
	return engineRun(t, cfg, gcfg, seed, opts)
}

// shimRun runs the same source through RunSource.
func shimRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *Options) *core.Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSource(cfg, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedMatchesUnsharded pins RunSource's shard count onto the engine:
// for every synthetic workload class, both schemes and every shard count,
// the run must reproduce the one-shard engine bit for bit.
func TestShardedMatchesUnsharded(t *testing.T) {
	const servers, seed = 60, 11
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		for _, scheme := range equivSchemes {
			cfg := shardConfig(scheme)
			want := oneShardRun(t, cfg, gcfg, genSeed, nil)
			for _, shards := range equivShards {
				got := shimRun(t, cfg, gcfg, genSeed, &Options{Shards: shards})
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s shards=%d: result differs from one shard",
						gcfg.Class, scheme, shards)
				}
			}
		}
	}
}

// TestShardedMatchesUnshardedWithFaults extends the pin to a faulted plant
// covering every fault kind. Fault activation is a pure function of
// (seed, stream, unit, interval) and shards keep global circulation and
// server indices, so the FaultSummary and the step-retry path must not
// depend on the shard count.
func TestShardedMatchesUnshardedWithFaults(t *testing.T) {
	const servers, seed = 60, 7
	plan := &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
		{Kind: fault.TEGOpen, Rate: 0.02},
		{Kind: fault.SensorStuck, Rate: 0.05},
		{Kind: fault.PumpDroop, Rate: 0.05, Severity: 0.3},
		{Kind: fault.StepError, Rate: 0.02},
	}}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		for _, scheme := range equivSchemes {
			cfg := shardConfig(scheme)
			cfg.Faults = plan
			cfg.FaultSeed = 99
			want := oneShardRun(t, cfg, gcfg, genSeed, nil)
			for _, shards := range equivShards {
				got := shimRun(t, cfg, gcfg, genSeed, &Options{Shards: shards})
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s shards=%d faulted: result differs from one shard",
						gcfg.Class, scheme, shards)
				}
			}
		}
	}
}

// TestShardedMatchesSerialDecidePath pins the run across shard counts on a
// drastic trace: sharded == one shard, for both schemes.
func TestShardedMatchesSerialDecidePath(t *testing.T) {
	const servers, seed = 40, 3
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	for _, scheme := range equivSchemes {
		cfg := shardConfig(scheme)
		want := oneShardRun(t, cfg, gcfg, genSeed, nil)
		got := shimRun(t, cfg, gcfg, genSeed, &Options{Shards: 3})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: sharded result differs from one shard", scheme)
		}
	}
}
