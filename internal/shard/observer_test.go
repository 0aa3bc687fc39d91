package shard

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/trace"
)

// shardObserver records the lifecycle callbacks plus both optional stat
// attachments (core.CacheStatsSink and StatsSink).
type shardObserver struct {
	intervals  []int
	cacheStats func() (hits, calls uint64)
	shardStats func() Stats
}

func (o *shardObserver) ObserveInterval(i int, ir core.IntervalResult) {
	o.intervals = append(o.intervals, i)
}
func (o *shardObserver) ObserveCheckpoint(int)                              {}
func (o *shardObserver) ObserveResume(int)                                  {}
func (o *shardObserver) ObserveHalt(int)                                    {}
func (o *shardObserver) AttachCacheStats(stats func() (hits, calls uint64)) { o.cacheStats = stats }
func (o *shardObserver) AttachShardStats(stats func() Stats)                { o.shardStats = stats }

// TestShardObserverBitIdentityAndStats pins the observer seam the benchmark
// harness uses: the merger delivers every interval in order, the pipeline's
// stats reader and the cache stats both attach, and the Result with an
// observer riding along is bit-identical to the plain run.
func TestShardObserverBitIdentityAndStats(t *testing.T) {
	cfg := shardConfig(equivSchemes[1])
	gcfg := trace.CanonicalConfigs(60)[0]
	intervals := int(gcfg.Horizon / gcfg.Interval)

	plain := shimRun(t, cfg, gcfg, 5, &Options{Shards: 4})

	obs := &shardObserver{}
	observed := shimRun(t, cfg, gcfg, 5, &Options{Shards: 4, Observer: obs})

	if !reflect.DeepEqual(plain, observed) {
		t.Error("attaching an observer changed the Result")
	}
	if len(obs.intervals) != intervals {
		t.Fatalf("observer saw %d intervals, run has %d", len(obs.intervals), intervals)
	}
	for i, got := range obs.intervals {
		if got != i {
			t.Fatalf("interval callback %d carried index %d; merger must deliver in order", i, got)
		}
	}

	if obs.shardStats == nil {
		t.Fatal("StatsSink was not attached")
	}
	st := obs.shardStats()
	if st.Shards != 4 || len(st.StepSeconds) != 4 {
		t.Errorf("stats shards = %d (step slots %d), want 4", st.Shards, len(st.StepSeconds))
	}
	var stepped float64
	for _, s := range st.StepSeconds {
		if s < 0 {
			t.Errorf("negative step seconds: %v", st.StepSeconds)
		}
		stepped += s
	}
	if stepped <= 0 {
		t.Error("stats report zero total step time after a full run")
	}
	if st.DecodeSeconds <= 0 {
		t.Errorf("stats decode seconds = %v, want > 0", st.DecodeSeconds)
	}

	if obs.cacheStats == nil {
		t.Fatal("CacheStatsSink was not attached")
	}
	if _, calls := obs.cacheStats(); calls == 0 {
		t.Error("cache stats report zero decide calls")
	}
}
