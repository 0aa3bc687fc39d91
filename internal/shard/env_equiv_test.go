package shard

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/trace"
)

// seasonalConfig is the full environment stack: seasonal source, reuse sink
// and storage buffer.
func seasonalConfig(scheme sched.Scheme, seed uint64) core.Config {
	cfg := shardConfig(scheme)
	s := env.DefaultSeasonal(seed)
	s.IntervalsPerDay = 48
	cfg.Env = s
	cfg.Reuse = heatreuse.DefaultSink()
	spec := storage.ServerBufferSpec().Scale(4)
	cfg.Storage = &spec
	return cfg
}

// TestShardedConstantEnvBitIdentical closes the environment layer's
// equivalence matrix over shard counts: an explicit constant source must
// reproduce the one-shard nil-Env default bit for bit at every shard count.
func TestShardedConstantEnvBitIdentical(t *testing.T) {
	const servers, seed = 60, 19
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		for _, scheme := range equivSchemes {
			base := shardConfig(scheme)
			explicit := base
			explicit.Env = env.NewConstant(base.WetBulb, base.ColdSource)
			want := oneShardRun(t, base, gcfg, genSeed, nil)
			for _, shards := range equivShards {
				got := shimRun(t, explicit, gcfg, genSeed, &Options{Shards: shards})
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s shards=%d: constant-env result differs from the one-shard default",
						gcfg.Class, scheme, shards)
				}
			}
		}
	}
}

// TestShardedSeasonalMatchesUnsharded extends the shard-count pin to the
// full environment stack. The environment is a pure function of the
// interval and the buffer folds in the merger, so shard count must not move
// a bit.
func TestShardedSeasonalMatchesUnsharded(t *testing.T) {
	const servers, seed = 60, 29
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	for _, scheme := range equivSchemes {
		cfg := seasonalConfig(scheme, 7)
		want := oneShardRun(t, cfg, gcfg, genSeed, nil)
		if want.ReusedHeat <= 0 || want.StorageStored <= 0 {
			t.Fatalf("%s: seasonal stack inert (reuse %v, stored %v)", scheme, want.ReusedHeat, want.StorageStored)
		}
		for _, shards := range equivShards {
			got := shimRun(t, cfg, gcfg, genSeed, &Options{Shards: shards})
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s shards=%d: seasonal result differs from one shard", scheme, shards)
			}
		}
	}
}

// TestShardedSeasonalResume pins the checkpoint path under the environment
// stack: a four-shard seasonal run halted mid-run resumes under two shards
// bit-identically to the uninterrupted run.
func TestShardedSeasonalResume(t *testing.T) {
	const servers, seed, haltAfter = 60, 5, 70
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := seasonalConfig(sched.LoadBalance, 3)

	want := oneShardRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cfg.Workers = 4
	cp := haltRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, HaltAfter: haltAfter})
	if cp.EnvFingerprint == "" || len(cp.StorageWh) != 2 {
		t.Fatalf("checkpoint missing environment state: %+v", cp)
	}
	cfg.Workers = 2
	resumed := engineRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, Resume: cp})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("resumed seasonal run differs from uninterrupted one")
	}
}
