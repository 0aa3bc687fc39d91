package shard

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// haltRun runs the engine to opts.HaltAfter with a checkpoint sink and
// returns the last checkpoint written, round-tripped through JSON the way
// cmd/h2psim persists it.
func haltRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *core.RunOptions) *core.Checkpoint {
	t.Helper()
	var cp *core.Checkpoint
	opts.Checkpoint = &core.CheckpointOptions{Every: 20, Write: func(c *core.Checkpoint) error {
		cp = c
		return nil
	}}
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSource(src, opts); !errors.Is(err, core.ErrHalted) {
		t.Fatalf("halted run: err = %v, want ErrHalted", err)
	}
	if cp == nil || cp.NextInterval != opts.HaltAfter {
		t.Fatalf("halted run: checkpoint = %+v", cp)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(core.Checkpoint)
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestShardedResumeBitIdentical is the kill/resume drill at a fixed shard
// count: a run halted at an interval boundary and resumed from its
// checkpoint under the same four shards must reproduce the one-shard run
// bit for bit. Halt points cover on- and off-cadence boundaries.
func TestShardedResumeBitIdentical(t *testing.T) {
	const servers, seed, shards = 60, 23, 4
	gcfg := trace.DrasticConfig(servers) // 144 intervals
	genSeed := trace.CanonicalSeed(seed, 0)
	for _, scheme := range equivSchemes {
		for _, keepSeries := range []bool{true, false} {
			cfg := shardConfig(scheme)
			want := oneShardRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: keepSeries})
			cfg.Workers = shards
			for _, haltAfter := range []int{1, 50, 143} {
				cp := haltRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: keepSeries, HaltAfter: haltAfter})
				resumed := engineRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: keepSeries, Resume: cp})
				if !reflect.DeepEqual(want, resumed) {
					t.Errorf("%s halt=%d keepSeries=%v: resumed run differs from one shard",
						scheme, haltAfter, keepSeries)
				}
			}
		}
	}
}

// TestMergedCheckpointResumesUnsharded pins the cross-layout contract: a
// checkpoint taken under four shards holds its sensors in global circulation
// order, so a one-shard run resumed from it reproduces the uninterrupted run
// bit for bit.
func TestMergedCheckpointResumesUnsharded(t *testing.T) {
	const servers, seed, haltAfter = 60, 5, 60
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.LoadBalance)

	want := oneShardRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cfg.Workers = 4
	cp := haltRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, HaltAfter: haltAfter})
	resumed := oneShardRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, Resume: cp})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("one-shard run resumed from a four-shard checkpoint differs from uninterrupted run")
	}
}

// TestSingleShardResumesAlone pins that a one-shard checkpoint is
// self-standing: a one-shard run resumed from it matches the uninterrupted
// run exactly.
func TestSingleShardResumesAlone(t *testing.T) {
	const servers, seed, haltAfter = 40, 9, 30
	gcfg := trace.IrregularConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)
	cfg.Workers = 1

	want := engineRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cp := haltRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, HaltAfter: haltAfter})
	resumed := engineRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, Resume: cp})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("single-shard resume differs from uninterrupted run")
	}
}

// TestHaltSemantics pins the halt contract: a HaltAfter at or past the end
// never halts, whatever the shard count.
func TestHaltSemantics(t *testing.T) {
	const servers, seed = 40, 13
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)
	intervals := int(gcfg.Horizon / gcfg.Interval)

	want := oneShardRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cfg.Workers = 3
	for _, haltAfter := range []int{intervals, intervals + 7} {
		got := engineRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, HaltAfter: haltAfter})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("haltAfter=%d (past end): result differs from one shard", haltAfter)
		}
	}
}

// TestCheckpointSizeIndependentOfProgress is the checkpoint perf guard: a
// checkpoint holds aggregates and one sensor snapshot per circulation, so
// its encoded size must not grow with the intervals elapsed. A drastic
// trace at the exact quantum mints a fresh plane almost every decision,
// which is what made the size grow while checkpoints listed the retired
// decision cache's keys.
func TestCheckpointSizeIndependentOfProgress(t *testing.T) {
	const servers = 200
	gcfg := trace.DrasticConfig(servers)
	src, err := trace.NewGeneratorSource(gcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardConfig(sched.Original)
	cfg.Workers = 2
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	opts := &core.RunOptions{Checkpoint: &core.CheckpointOptions{Every: 24, Write: func(cp *core.Checkpoint) error {
		data, err := json.Marshal(cp)
		sizes[cp.NextInterval] = len(data)
		return err
	}}}
	if _, err := eng.RunSource(src, opts); err != nil {
		t.Fatal(err)
	}
	early, late := sizes[24], sizes[120]
	if early == 0 || late == 0 {
		t.Fatalf("checkpoints at 24 and 120 not written: %v", sizes)
	}
	// One sensor snapshot per circulation; the fixed part covers the
	// aggregates.
	circs := cfg.Circulations(servers)
	if bound := 150*circs + 2048; early > bound || late > bound {
		t.Errorf("checkpoint sizes %d (interval 24) and %d (interval 120) exceed the O(circulations) bound %d",
			early, late, bound)
	}
	if d := late - early; d > 256 || d < -256 {
		t.Errorf("checkpoint grew from %d bytes at interval 24 to %d at interval 120", early, late)
	}
}
