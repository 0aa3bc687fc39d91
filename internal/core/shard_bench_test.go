package core

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// benchShardConfig is the scaling benchmark's datacenter: 12.5k servers in
// 25-server circulations (500 circulations) over a month of 5-minute
// intervals — 8640 columns, the production scale the shard pipeline exists
// for. The controller runs at the 1/512 decision quantum, the documented
// setting for month-scale runs.
func benchShardConfig() Config {
	cfg := DefaultConfig(sched.Original)
	cfg.DecisionQuantum = 1.0 / 512
	return cfg
}

func benchShardTrace(servers int) trace.GeneratorConfig {
	gcfg := trace.CommonConfig(servers)
	gcfg.Horizon = 30 * 24 * time.Hour
	return gcfg
}

// benchShardCounts is the scaling ladder: 1/2/4/8 shards plus GOMAXPROCS
// (deduplicated), so the emitted BENCH_shard.json always carries the
// machine's own full-width point.
func benchShardCounts() []int {
	counts := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	sort.Ints(counts)
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkShardScaling runs the full month-scale trace through the run
// loop at each rung of the Workers ladder. One op is one complete run (8640
// intervals x 12500 servers); servers/s is server-intervals per second, the
// same unit the interval-throughput benchmarks report, so the two tables
// compose. `make bench` runs this with -benchtime 1x and lands the test2json
// stream in BENCH_shard.json.
func BenchmarkShardScaling(b *testing.B) {
	const servers = 12500
	gcfg := benchShardTrace(servers)
	intervals := int(gcfg.Horizon / gcfg.Interval)
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := benchShardConfig()
			cfg.Workers = shards
			for i := 0; i < b.N; i++ {
				src, err := trace.NewGeneratorSource(gcfg, 42)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.RunSource(src, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(servers)*float64(intervals)*float64(b.N)/b.Elapsed().Seconds(), "servers/s")
		})
	}
}
