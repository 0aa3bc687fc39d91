package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestSerialParallelEquivalence is the determinism guarantee of the run
// loop: for every synthetic workload class, both schemes, a fault-free and
// an all-kinds faulted plant, the default and the seasonal environment
// stack, and every worker count, the pipelined run must reproduce the serial
// reference loop bit for bit — every summary metric and every
// IntervalResult. The bounded default (no retained series) must agree on
// every summary aggregate. Under -race it also proves the decoder, shards
// and merger share no unsynchronized state.
func TestSerialParallelEquivalence(t *testing.T) {
	const servers, seed = 60, 11
	plans := []*fault.Plan{nil, allFaultsPlan()}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
			for pi, plan := range plans {
				for _, seasonal := range []bool{false, true} {
					cfg := smallConfig(scheme)
					cfg.ServersPerCirculation = 5 // 12 circulations
					cfg.Faults = plan
					cfg.FaultSeed = 99
					if seasonal {
						cfg = withSeasonalStack(cfg, 7)
					}
					name := fmt.Sprintf("%s/%s/plan=%d/seasonal=%v", gcfg.Class, scheme, pi, seasonal)
					want := referenceGen(t, cfg, gcfg, genSeed, true)
					summary := *want
					summary.Intervals = nil
					for _, workers := range equivWorkers {
						cfg.Workers = workers
						got := genRun(t, cfg, gcfg, genSeed, &RunOptions{KeepSeries: true})
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s workers=%d: result differs from the serial reference", name, workers)
						}
						bounded := genRun(t, cfg, gcfg, genSeed, nil)
						if !reflect.DeepEqual(&summary, bounded) {
							t.Errorf("%s workers=%d: bounded summary differs from the serial reference", name, workers)
						}
					}
				}
			}
		}
	}
}

// TestHighEntropyParallelEquivalence stresses the zero-allocation decision
// path where it is least cache-friendly: a hand-built trace in which every
// server/interval utilization is a distinct value (a deterministic LCG, so
// nearly every Choose is a miss), split into many small circulations and
// stepped by up to 16 shards. Every run must reproduce the serial reference
// bit-for-bit; under -race (make check) this also proves the lock-free cache
// and sharded counters are data-race-free while shared across shards.
func TestHighEntropyParallelEquivalence(t *testing.T) {
	const servers, intervals = 96, 40
	tr, err := trace.New("high-entropy", trace.Drastic, servers, intervals, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(0x9E3779B97F4A7C15)
	for s := 0; s < servers; s++ {
		for i := 0; i < intervals; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			tr.U[s][i] = float64(state>>11) / float64(1<<53)
		}
	}
	for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
		cfg := smallConfig(scheme)
		cfg.ServersPerCirculation = 6 // 16 circulations
		want := referenceTrace(t, cfg, tr)
		for _, workers := range append(equivWorkers, 16) {
			cfg.Workers = workers
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: Workers=%d diverges from the serial reference on the high-entropy trace", scheme, workers)
			}
		}
	}
}

// TestQuantizedCacheKeepsEquivalence repeats the equivalence check with the
// decision plane quantized: quantization perturbs the results relative to
// the exact controller, but every worker count must still agree bit-for-bit
// with the serial reference under the same quantum.
func TestQuantizedCacheKeepsEquivalence(t *testing.T) {
	tr, err := trace.Generate(trace.DrasticConfig(50), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.LoadBalance)
	cfg.ServersPerCirculation = 5
	cfg.DecisionQuantum = 1.0 / 512
	want := referenceTrace(t, cfg, tr)
	for _, workers := range equivWorkers {
		cfg.Workers = workers
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("Workers=%d: quantized cache broke equivalence with the serial reference", workers)
		}
		if hits, calls := eng.Controller().CacheStats(); calls == 0 || hits == 0 {
			t.Errorf("Workers=%d: quantized cache never hit: %d hits of %d calls", workers, hits, calls)
		}
	}
}

// TestRunContextCancellation verifies RunContext aborts promptly once its
// context is cancelled, both when cancelled up front and mid-run.
func TestRunContextCancellation(t *testing.T) {
	// Large enough that the run cannot finish inside the millisecond timeout
	// below, even on the batched decide path.
	tr, err := trace.Generate(trace.CommonConfig(5000), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallConfig(sched.LoadBalance))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := eng.RunContext(ctx, tr); err != context.Canceled {
		t.Errorf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-cancelled run took %v, want prompt return", d)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := eng.RunContext(ctx, tr); err == nil {
		t.Error("mid-run cancellation: expected an error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("mid-run cancellation took %v, want prompt return", d)
	}
}

// TestFleetCompareMatchesEngines pins the Fleet layer to the ground truth:
// concurrent scheme runs over a shared look-up space must reproduce two
// standalone serial engines bit-for-bit.
func TestFleetCompareMatchesEngines(t *testing.T) {
	tr, err := trace.Generate(trace.IrregularConfig(50), 13)
	if err != nil {
		t.Fatal(err)
	}
	base := smallConfig(sched.Original)
	orig, lb, err := NewFleet().CompareContext(context.Background(), tr, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, want := range []struct {
		scheme sched.Scheme
		got    *Result
	}{
		{sched.Original, orig},
		{sched.LoadBalance, lb},
	} {
		cfg := base
		cfg.Scheme = want.scheme
		cfg.Workers = 1
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := eng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, want.got) {
			t.Errorf("%s: fleet result differs from standalone serial engine", want.scheme)
		}
	}
}

// TestFleetSharesSpaces verifies the space memoization: identical spec+axes
// yield the same *lookup.Space, different axes a fresh one.
func TestFleetSharesSpaces(t *testing.T) {
	f := NewFleet()
	cfg := DefaultConfig(sched.Original)
	a, err := f.Space(cfg.Spec, cfg.Axes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Space(cfg.Spec, cfg.Axes)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical spec+axes should share one space")
	}
	other := cfg.Axes
	other.Utilization = append([]float64(nil), other.Utilization...)
	other.Utilization[1] += 0.001
	c, err := f.Space(cfg.Spec, other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different axes must not share a space")
	}
}

// TestFleetSpaceMemo pins the memo's key: axes with equal nodes in
// distinct slices share one space, a change to one node of any axis gets a
// different one, and a NaN or infinite node on any axis fails without
// adding a space.
func TestFleetSpaceMemo(t *testing.T) {
	f := NewFleet()
	cfg := DefaultConfig(sched.Original)
	clone := func(ax lookup.Axes) lookup.Axes {
		return lookup.Axes{
			Utilization: slices.Clone(ax.Utilization),
			Flow:        slices.Clone(ax.Flow),
			Inlet:       slices.Clone(ax.Inlet),
		}
	}
	space := func(ax lookup.Axes) *lookup.Space {
		t.Helper()
		s, err := f.Space(cfg.Spec, ax)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := space(clone(cfg.Axes))
	if space(clone(cfg.Axes)) != base {
		t.Error("equal axes in distinct slices must share one space")
	}
	nodes := []func(*lookup.Axes) *float64{
		func(ax *lookup.Axes) *float64 { return &ax.Utilization[2] },
		func(ax *lookup.Axes) *float64 { return &ax.Flow[1] },
		func(ax *lookup.Axes) *float64 { return &ax.Inlet[3] },
		func(ax *lookup.Axes) *float64 { return &ax.Inlet[len(ax.Inlet)-1] },
	}
	for i, node := range nodes {
		ax := clone(cfg.Axes)
		*node(&ax) += 0.001
		if space(ax) == base {
			t.Errorf("axis %d: a changed node must get a different space", i)
		}
	}
	before := len(f.spaces)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, node := range nodes {
			ax := clone(cfg.Axes)
			*node(&ax) = v
			if s, err := f.Space(cfg.Spec, ax); err == nil {
				t.Errorf("axis %d with node %v: got a space %p, want an error", i, v, s)
			}
		}
	}
	if len(f.spaces) != before {
		t.Errorf("failed builds changed the memo from %d to %d spaces", before, len(f.spaces))
	}
}

// TestFleetSharesSegmentIndex checks that engines built by one fleet share
// the segment index their miss scans prune with: the space memoizes it per
// band, so the second engine's run reuses the first one's build.
func TestFleetSharesSegmentIndex(t *testing.T) {
	f := NewFleet()
	gcfg := trace.CanonicalConfigs(60)[0]
	var ctrls []*sched.Controller
	for _, scheme := range streamEquivSchemes {
		eng, err := f.Engine(smallConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewGeneratorSource(gcfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunSource(src, nil); err != nil {
			t.Fatal(err)
		}
		ctrls = append(ctrls, eng.Controller())
	}
	index := func(c *sched.Controller) *lookup.SegmentIndex {
		return c.Space.SegmentIndex(c.TSafe-c.Band, c.TSafe+c.Band)
	}
	if a, b := index(ctrls[0]), index(ctrls[1]); a == nil || a != b {
		t.Errorf("engines from one fleet use segment indexes %p and %p, want one shared index", a, b)
	}
}

// TestFleetEvaluateContextOrder checks EvaluateContext returns results in
// trace order with matching metadata.
func TestFleetEvaluateContextOrder(t *testing.T) {
	traces, err := trace.GenerateAll(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	origs, lbs, err := NewFleet().EvaluateContext(context.Background(), traces, smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	if len(origs) != len(traces) || len(lbs) != len(traces) {
		t.Fatalf("got %d/%d results for %d traces", len(origs), len(lbs), len(traces))
	}
	for i, tr := range traces {
		if origs[i].TraceName != tr.Name || lbs[i].TraceName != tr.Name {
			t.Errorf("trace %d: result order scrambled", i)
		}
		if origs[i].Scheme != sched.Original || lbs[i].Scheme != sched.LoadBalance {
			t.Errorf("trace %d: schemes scrambled", i)
		}
	}
}

// TestZeroServerTraceRejected is the degenerate-trace guard: a trace with
// no servers must surface a validation error, never NaN-poisoned results.
func TestZeroServerTraceRejected(t *testing.T) {
	eng, err := NewEngine(smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	empty := &trace.Trace{Name: "empty", Class: trace.Common, Interval: 5 * time.Minute}
	res, err := eng.Run(empty)
	if err == nil {
		t.Fatalf("zero-server trace must error, got result %+v", res)
	}
}

// TestWorkersValidation rejects a negative worker count.
func TestWorkersValidation(t *testing.T) {
	cfg := DefaultConfig(sched.Original)
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers should fail validation")
	}
	cfg = DefaultConfig(sched.Original)
	cfg.DecisionQuantum = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative DecisionQuantum should fail validation")
	}
}
