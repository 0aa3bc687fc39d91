package core

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/trace"
)

// equivWorkers is the worker-count axis of the equivalence suites: one
// shard, two, an uneven three-way split, and more shards than the test
// host's CPUs.
var equivWorkers = []int{1, 2, 3, 5}

// referenceRun is the equivalence suites' independent referee: a serial loop
// with no pipeline, no partition and no goroutines. One ShardRunner spans
// every circulation; each interval is decoded, stepped, merged and folded in
// turn.
func referenceRun(t testing.TB, cfg Config, src trace.Source, keepSeries bool) *Result {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := src.Meta()
	n := cfg.Circulations(meta.Servers)
	runner, err := eng.NewShardRunner(meta.Servers, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(meta, cfg, keepSeries)
	col := make([]float64, meta.Servers)
	parts := make([]CirculationInterval, n)
	errs := make([]error, n)
	for i := 0; i < meta.Intervals; i++ {
		if got, err := src.NextColumn(col); err != nil || got != i {
			t.Fatalf("reference: interval %d: got %d, err %v", i, got, err)
		}
		runner.Step(col, i, parts, errs)
		for ci, err := range errs {
			if err != nil {
				t.Fatalf("reference: interval %d circulation %d: %v", i, ci, err)
			}
		}
		agg.Fold(MergeInterval(col, parts))
	}
	return agg.Finalize()
}

// referenceTrace runs the referee over an in-memory trace, keeping the
// series like Engine.Run does.
func referenceTrace(t testing.TB, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	src, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	return referenceRun(t, cfg, src, true)
}

// referenceGen runs the referee over a generator source.
func referenceGen(t testing.TB, cfg Config, gcfg trace.GeneratorConfig, seed int64, keepSeries bool) *Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return referenceRun(t, cfg, src, keepSeries)
}

// genRun runs a generator source through the engine's run loop.
func genRun(t testing.TB, cfg Config, gcfg trace.GeneratorConfig, seed int64, opts *RunOptions) *Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// allFaultsPlan covers every fault kind, the step-retry path included.
func allFaultsPlan() *fault.Plan {
	return &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
		{Kind: fault.TEGOpen, Rate: 0.02},
		{Kind: fault.SensorStuck, Rate: 0.05},
		{Kind: fault.PumpDroop, Rate: 0.05, Severity: 0.3},
		{Kind: fault.StepError, Rate: 0.02},
	}}
}

// withSeasonalStack adds the full facility environment to cfg: a seasonal
// source with reuse demand, a district-heating sink and a storage buffer.
func withSeasonalStack(cfg Config, seed uint64) Config {
	s := env.DefaultSeasonal(seed)
	s.IntervalsPerDay = 48 // Drastic's 12 h trace spans a quarter day
	cfg.Env = s
	cfg.Reuse = heatreuse.DefaultSink()
	spec := storage.ServerBufferSpec().Scale(4)
	cfg.Storage = &spec
	return cfg
}

// FuzzShardEquivalence lets the fuzzer pick the workload class, seeds, shape
// and shard count, and requires the run loop's full result to match the
// serial referee exactly. The seed corpus covers each class and the
// clamping edge.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(5), false)
	f.Add(int64(2), uint8(1), uint8(4), uint8(7), true)
	f.Add(int64(3), uint8(2), uint8(9), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, classIdx, shards, spc uint8, faulted bool) {
		const servers = 30
		configs := trace.CanonicalConfigs(servers)
		gcfg := configs[int(classIdx)%len(configs)]
		// Short horizon: equivalence holds per interval, so a few are enough.
		gcfg.Horizon = 10 * gcfg.Interval
		cfg := smallConfig(sched.LoadBalance)
		cfg.ServersPerCirculation = 1 + int(spc)%10
		cfg.Workers = 1 + int(shards)%16
		if faulted {
			cfg.Faults = &fault.Plan{Specs: []fault.Spec{
				{Kind: fault.TEGDegrade, Rate: 0.2, Severity: 0.4},
				{Kind: fault.SensorStuck, Rate: 0.1},
			}}
			cfg.FaultSeed = seed
		}
		want := referenceGen(t, cfg, gcfg, seed, true)
		got := genRun(t, cfg, gcfg, seed, &RunOptions{KeepSeries: true})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run differs from the serial reference (class=%s spc=%d workers=%d faulted=%v)",
				gcfg.Class, cfg.ServersPerCirculation, cfg.Workers, faulted)
		}
	})
}
