package core

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestCacheStatsRepeatAcrossRuns pins that the decision counters depend
// only on the columns each shard decides: two Workers 2 runs of one config
// over one trace report identical CacheStats, however their shard
// goroutines interleave. Every circulation-interval is one call, and the
// repeated planes of a shard's column are hits.
func TestCacheStatsRepeatAcrossRuns(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(400), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, quantum := range []float64{0, 1.0 / 512} {
		var stats [2][2]uint64
		for run := range stats {
			cfg := smallConfig(sched.LoadBalance)
			cfg.Workers = 2
			cfg.DecisionQuantum = quantum
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(tr); err != nil {
				t.Fatal(err)
			}
			stats[run][0], stats[run][1] = eng.Controller().CacheStats()
		}
		if stats[0] != stats[1] {
			t.Errorf("q=%v: two runs counted (hits, calls) %v and %v", quantum, stats[0], stats[1])
		}
		hits, calls := stats[0][0], stats[0][1]
		if want := uint64(400 / 20 * len(tr.U[0])); calls != want {
			t.Errorf("q=%v: %d calls, want one per circulation-interval (%d)", quantum, calls, want)
		}
		if quantum > 0 && (hits == 0 || hits >= calls) {
			t.Errorf("q=%v: %d hits of %d calls, want some but not all", quantum, hits, calls)
		}
	}
}
