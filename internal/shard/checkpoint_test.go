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

// haltShardedRun runs the sharded pipeline to HaltAfter with a checkpoint
// sink and returns the last checkpoint written.
func haltShardedRun(t *testing.T, cfg core.Config, gcfg trace.GeneratorConfig, seed int64, opts *Options) *Checkpoint {
	t.Helper()
	var cp *Checkpoint
	opts.Checkpoint = &CheckpointOptions{Every: 20, Write: func(c *Checkpoint) error {
		cp = c
		return nil
	}}
	src, err := trace.NewGeneratorSource(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSource(cfg, src, opts); !errors.Is(err, core.ErrHalted) {
		t.Fatalf("halted sharded run: err = %v, want ErrHalted", err)
	}
	if cp == nil || cp.Merged.NextInterval != opts.HaltAfter {
		t.Fatalf("halted sharded run: checkpoint = %+v", cp)
	}
	return cp
}

// TestShardedResumeBitIdentical is the sharded kill/resume drill: a sharded
// run halted at an interval boundary and resumed from its checkpoint —
// round-tripped through JSON, as cmd/h2psim persists it — must produce the
// same Result, bit for bit, as both the uninterrupted sharded run and the
// unsharded engine. Halt points cover on- and off-cadence boundaries.
func TestShardedResumeBitIdentical(t *testing.T) {
	const servers, seed, shards = 60, 23, 4
	gcfg := trace.DrasticConfig(servers) // 144 intervals
	genSeed := trace.CanonicalSeed(seed, 0)
	for _, scheme := range equivSchemes {
		for _, keepSeries := range []bool{true, false} {
			for _, haltAfter := range []int{1, 50, 143} {
				cfg := shardConfig(scheme)
				want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: keepSeries})
				full := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: shards, KeepSeries: keepSeries})
				if !reflect.DeepEqual(want, full) {
					t.Fatalf("%s halt=%d: uninterrupted sharded run differs from unsharded", scheme, haltAfter)
				}

				cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{
					Shards: shards, KeepSeries: keepSeries, HaltAfter: haltAfter,
				})
				blob, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				restored := new(Checkpoint)
				if err := json.Unmarshal(blob, restored); err != nil {
					t.Fatal(err)
				}

				resumed := shardedRun(t, cfg, gcfg, genSeed, &Options{
					Shards: shards, KeepSeries: keepSeries, Resume: restored,
				})
				if !reflect.DeepEqual(full, resumed) {
					t.Errorf("%s halt=%d keepSeries=%v: resumed sharded run differs from uninterrupted",
						scheme, haltAfter, keepSeries)
				}
			}
		}
	}
}

// TestMergedCheckpointResumesUnsharded pins the cross-compatibility contract:
// the Merged record inside a sharded checkpoint is a complete core.Checkpoint
// — sensors concatenated in global circulation order —
// so an UNSHARDED engine resumed from it reproduces the uninterrupted run
// bit for bit.
func TestMergedCheckpointResumesUnsharded(t *testing.T) {
	const servers, seed, haltAfter = 60, 5, 60
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.LoadBalance)

	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 4, KeepSeries: true, HaltAfter: haltAfter})

	resumed := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true, Resume: &cp.Merged})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("unsharded engine resumed from sharded Merged record differs from uninterrupted run")
	}
}

// TestSingleShardResumesAlone pins that one shard's checkpoint state is
// self-standing: a 1-shard sharded run resumed from a checkpoint taken by a
// 1-shard run matches the uninterrupted engine exactly — the shard carries
// everything it needs (sensors, merged aggregates) without its
// former siblings.
func TestSingleShardResumesAlone(t *testing.T) {
	const servers, seed, haltAfter = 40, 9, 30
	gcfg := trace.IrregularConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)

	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 1, KeepSeries: true, HaltAfter: haltAfter})
	resumed := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 1, KeepSeries: true, Resume: cp})
	if !reflect.DeepEqual(want, resumed) {
		t.Error("single-shard resume differs from uninterrupted run")
	}
}

// TestCheckpointLayoutValidation rejects resume under a mismatched shard
// layout with a typed *LayoutError — distinguishable from data corruption —
// while trace/scheme/progress mismatches still surface as the core engine's
// own validation errors.
func TestCheckpointLayoutValidation(t *testing.T) {
	const servers, seed, haltAfter = 60, 3, 40
	gcfg := trace.CommonConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)
	cp := haltShardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 4, KeepSeries: true, HaltAfter: haltAfter})

	resume := func(c *Checkpoint, shards int) error {
		src, err := trace.NewGeneratorSource(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunSource(cfg, src, &Options{Shards: shards, KeepSeries: true, Resume: c})
		return err
	}

	// The pristine checkpoint resumes under its own layout.
	if err := resume(clone(t, cp), 4); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	layoutCases := []struct {
		name   string
		shards int
		mutate func(*Checkpoint)
	}{
		{"resume with different shard count", 2, func(c *Checkpoint) {}},
		{"declared shard count", 4, func(c *Checkpoint) { c.Shards = 3 }},
		{"range bounds", 4, func(c *Checkpoint) { c.Ranges[1].Hi++; c.Ranges[2].Lo++ }},
		{"per-shard record range", 4, func(c *Checkpoint) { c.PerShard[0].Range.Hi++ }},
		{"per-shard sensor count", 4, func(c *Checkpoint) {
			c.PerShard[2].Sensors = c.PerShard[2].Sensors[:1]
		}},
		{"missing shard record", 4, func(c *Checkpoint) { c.PerShard = c.PerShard[:3] }},
	}
	for _, tc := range layoutCases {
		c := clone(t, cp)
		tc.mutate(c)
		err := resume(c, tc.shards)
		var le *LayoutError
		if !errors.As(err, &le) {
			t.Errorf("%s: err = %v, want *LayoutError", tc.name, err)
		}
	}

	// Non-layout corruption is the core engine's to reject — and must NOT
	// masquerade as a layout problem.
	coreCases := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"envelope version", func(c *Checkpoint) { c.Version++ }},
		{"merged version", func(c *Checkpoint) { c.Merged.Version++ }},
		{"trace identity", func(c *Checkpoint) { c.Merged.TraceName = "other" }},
		{"scheme", func(c *Checkpoint) { c.Merged.Scheme = sched.LoadBalance }},
		{"progress past end", func(c *Checkpoint) { c.Merged.NextInterval = c.Merged.Intervals }},
		{"merged sensor count", func(c *Checkpoint) { c.Merged.Sensors = c.Merged.Sensors[:5] }},
	}
	for _, tc := range coreCases {
		c := clone(t, cp)
		tc.mutate(c)
		err := resume(c, 4)
		if err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", tc.name)
			continue
		}
		var le *LayoutError
		if errors.As(err, &le) {
			t.Errorf("%s: err = %v, want a non-layout error", tc.name, err)
		}
	}
}

// clone deep-copies a checkpoint through its JSON round trip — the same path
// a persisted checkpoint travels.
func clone(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	out := new(Checkpoint)
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHaltSemantics pins the halt contract against the unsharded engine: a
// HaltAfter at or past the end never halts, and a halted run returns
// core.ErrHalted so fleet-level callers treat it as a clean, resumable stop.
func TestHaltSemantics(t *testing.T) {
	const servers, seed = 40, 13
	gcfg := trace.DrasticConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := shardConfig(sched.Original)
	intervals := int(gcfg.Horizon / gcfg.Interval)

	want := unshardedRun(t, cfg, gcfg, genSeed, &core.RunOptions{KeepSeries: true})
	for _, haltAfter := range []int{intervals, intervals + 7} {
		got := shardedRun(t, cfg, gcfg, genSeed, &Options{Shards: 3, KeepSeries: true, HaltAfter: haltAfter})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("haltAfter=%d (past end): result differs from unsharded", haltAfter)
		}
	}
}

// TestCheckpointSizeIndependentOfProgress is the checkpoint perf guard: a
// sharded checkpoint holds aggregates and one sensor snapshot per
// circulation, so its encoded size must not grow with the intervals elapsed.
// The exact decision cache misses on nearly every plane of a drastic trace,
// which is what made the size grow while checkpoints listed its keys.
func TestCheckpointSizeIndependentOfProgress(t *testing.T) {
	const servers = 200
	gcfg := trace.DrasticConfig(servers)
	src, err := trace.NewGeneratorSource(gcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardConfig(sched.Original)
	sizes := map[int]int{}
	opts := &Options{Shards: 2, Checkpoint: &CheckpointOptions{Every: 24, Write: func(cp *Checkpoint) error {
		data, err := json.Marshal(cp)
		sizes[cp.Merged.NextInterval] = len(data)
		return err
	}}}
	if _, err := RunSource(cfg, src, opts); err != nil {
		t.Fatal(err)
	}
	early, late := sizes[24], sizes[120]
	if early == 0 || late == 0 {
		t.Fatalf("checkpoints at 24 and 120 not written: %v", sizes)
	}
	// Per circulation: a sensor snapshot in the merged record and again in
	// its shard's record. The fixed part covers the aggregates and layout.
	circs := cfg.Circulations(servers)
	if bound := 2*150*circs + 2048; early > bound || late > bound {
		t.Errorf("checkpoint sizes %d (interval 24) and %d (interval 120) exceed the O(circulations) bound %d",
			early, late, bound)
	}
	if d := late - early; d > 256 || d < -256 {
		t.Errorf("checkpoint grew from %d bytes at interval 24 to %d at interval 120", early, late)
	}
}
