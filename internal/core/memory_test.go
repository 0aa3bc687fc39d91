package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// measureRunAllocs runs the generator source through eng's streaming path
// (no retained series) and returns the number of heap allocations the run
// performed.
func measureRunAllocs(t *testing.T, eng *Engine, gcfg trace.GeneratorConfig, seed int64) uint64 {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.RunSource(src, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStreamingSteadyStateAllocs pins the bounded-memory claim at the
// allocator level: on a warm serial engine at the 1/512 decision quantum, a
// streaming run's steady-state intervals allocate nothing — the controller
// keeps no per-plane state — so its allocations are a per-run constant, not
// proportional to the trace length. A 10x longer trace must therefore stay
// under the same constant ceiling, orders of magnitude below one
// allocation per interval.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	cfg := smallConfig(sched.Original)
	cfg.Workers = 1
	cfg.DecisionQuantum = 1.0 / 512
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := trace.DrasticConfig(60)
	g.Horizon = 12 * time.Hour // 144 intervals

	// First run builds any lazily built engine state.
	measureRunAllocs(t, eng, g, 1011)
	short := measureRunAllocs(t, eng, g, 1011)

	g.Horizon = 120 * time.Hour // 1440 intervals: 10x longer
	long := measureRunAllocs(t, eng, g, 1011)

	// Seen empirically: short ~53, long ~53-60, the same per-run setup
	// whatever the length. The bound leaves headroom for allocator noise
	// without ever tolerating per-interval growth (1440 intervals would
	// blow through it at 1 alloc/interval).
	const ceiling = 1024
	if short > ceiling || long > ceiling {
		t.Fatalf("warm streaming run allocations exceed constant ceiling: short=%d long=%d ceiling=%d",
			short, long, ceiling)
	}
	if perInterval := float64(long) / 1440; perInterval > 0.5 {
		t.Fatalf("long run allocates %.2f/interval; steady state must be amortized-free", perInterval)
	}
}

// TestStreamingWorkingSetBounded pins the O(servers) working-set claim: a
// streaming run over a trace whose full matrix would be tens of megabytes
// must retain only a small constant heap beyond its starting point, because
// no column outlives its interval. This is the regression guard against
// anything on the streaming path quietly re-materializing the matrix.
func TestStreamingWorkingSetBounded(t *testing.T) {
	const servers = 400
	g := trace.DrasticConfig(servers)
	g.Horizon = 240 * time.Hour // 2880 intervals: the matrix would be ~9.2 MB

	cfg := smallConfig(sched.Original)
	cfg.Workers = 4
	cfg.DecisionQuantum = 1.0 / 512
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewGeneratorSource(g, 7)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.RunSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if res.Servers != servers || len(res.Intervals) != 0 {
		t.Fatalf("unexpected result shape: servers=%d retained intervals=%d", res.Servers, len(res.Intervals))
	}
	matrixBytes := uint64(servers) * 2880 * 8
	var retained uint64
	if after.HeapAlloc > before.HeapAlloc {
		retained = after.HeapAlloc - before.HeapAlloc
	}
	// The run may legitimately retain the engine's state and the result
	// struct; a materialized matrix it may not. Keep the bound an
	// order of magnitude under the matrix.
	if retained > matrixBytes/10 {
		t.Fatalf("streaming run retained %d bytes (matrix would be %d); working set is not O(servers)",
			retained, matrixBytes)
	}
}
