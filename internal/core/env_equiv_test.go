package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestConstantEnvBitIdentical is the environment layer's acceptance pin: an
// explicit env.NewConstant(WetBulb, ColdSource) source must reproduce the
// nil-Env default bit for bit — every summary metric and every retained
// interval — across the workload classes, both schemes and a faulted plant.
// The two spellings share one fingerprint, so their checkpoints are
// interchangeable too.
func TestConstantEnvBitIdentical(t *testing.T) {
	const servers, seed = 60, 31
	plans := []*fault.Plan{
		nil,
		{Specs: []fault.Spec{
			{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
			{Kind: fault.PumpDroop, Rate: 0.05, Severity: 0.3},
		}},
	}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		tr, err := trace.Generate(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range streamEquivSchemes {
			for pi, plan := range plans {
				base := smallConfig(scheme)
				base.Workers = 4
				base.Faults = plan
				base.FaultSeed = 7

				explicit := base
				explicit.Env = env.NewConstant(base.WetBulb, base.ColdSource)
				if explicit.EnvSource().Fingerprint() != base.EnvSource().Fingerprint() {
					t.Fatalf("explicit and default constant fingerprints differ: %q vs %q",
						explicit.EnvSource().Fingerprint(), base.EnvSource().Fingerprint())
				}

				run := func(cfg Config) *Result {
					eng, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run(tr)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				if want, got := run(base), run(explicit); !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s plan=%d: explicit Constant differs from nil default",
						gcfg.Class, scheme, pi)
				}
			}
		}
	}
}

// seasonalConfig is the full environment stack for the resume tests: a
// seasonal source with reuse demand, a district-heating sink and a fleet
// storage buffer.
func seasonalConfig(scheme sched.Scheme) Config {
	cfg := withSeasonalStack(smallConfig(scheme), 42)
	cfg.Workers = 4
	return cfg
}

// TestSeasonalResumeBitIdentical halts a seasonal run — reuse sink and
// storage buffer active — at a mid-run boundary and resumes it from the
// JSON-round-tripped checkpoint under one and three workers: the Result must
// match the serial reference's uninterrupted run bit for bit, proving the
// checkpoint's environment fingerprint and storage state carry everything
// the fold needs.
func TestSeasonalResumeBitIdentical(t *testing.T) {
	const servers, seed, haltAfter = 60, 13, 71
	gcfg := trace.DrasticConfig(servers)
	for _, scheme := range streamEquivSchemes {
		for _, keepSeries := range []bool{true, false} {
			cfg := seasonalConfig(scheme)
			full := referenceGen(t, cfg, gcfg, trace.CanonicalSeed(seed, 0), keepSeries)
			if full.ReusedHeat <= 0 {
				t.Fatalf("%s: seasonal run diverted no heat — the resume test would prove nothing", scheme)
			}
			if full.StorageStored <= 0 {
				t.Fatalf("%s: seasonal run never charged the buffer", scheme)
			}

			var cp *Checkpoint
			src, err := trace.NewGeneratorSource(gcfg, trace.CanonicalSeed(seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunSource(src, &RunOptions{
				KeepSeries: keepSeries,
				HaltAfter:  haltAfter,
				Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error { cp = c; return nil }},
			}); err != ErrHalted {
				t.Fatalf("%s: err = %v, want ErrHalted", scheme, err)
			}
			if cp.EnvFingerprint != cfg.EnvSource().Fingerprint() {
				t.Fatalf("%s: checkpoint fingerprint %q, want %q", scheme, cp.EnvFingerprint, cfg.EnvSource().Fingerprint())
			}
			if len(cp.StorageWh) != 2 {
				t.Fatalf("%s: checkpoint storage state = %v", scheme, cp.StorageWh)
			}

			blob, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				restored := new(Checkpoint)
				if err := json.Unmarshal(blob, restored); err != nil {
					t.Fatal(err)
				}
				cfg.Workers = workers
				resumed := runStream(t, cfg, gcfg, seed, &RunOptions{KeepSeries: keepSeries, Resume: restored})
				if !reflect.DeepEqual(full, resumed) {
					t.Errorf("%s keepSeries=%v workers=%d: resumed seasonal result differs from the serial reference",
						scheme, keepSeries, workers)
				}
			}
		}
	}
}

// TestEnvCheckpointValidation rejects resume attempts that would splice
// incompatible environment or storage state into a run.
func TestEnvCheckpointValidation(t *testing.T) {
	const servers, seed, haltAfter = 40, 3, 20
	gcfg := trace.CommonConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := seasonalConfig(sched.Original)

	var cp *Checkpoint
	src, err := trace.NewGeneratorSource(gcfg, genSeed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSource(src, &RunOptions{
		HaltAfter:  haltAfter,
		Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error { cp = c; return nil }},
	}); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}

	resume := func(cfg Config, cp *Checkpoint) error {
		src, err := trace.NewGeneratorSource(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.RunSource(src, &RunOptions{Resume: cp})
		return err
	}

	// Different seed — different environment fingerprint.
	other := cfg
	other.Env = env.DefaultSeasonal(43)
	if err := resume(other, cp); err == nil {
		t.Error("checkpoint accepted under a different seasonal seed")
	}
	// Same run without storage must refuse the buffered checkpoint.
	noStore := cfg
	noStore.Storage = nil
	if err := resume(noStore, cp); err == nil {
		t.Error("storage checkpoint accepted by a buffer-free engine")
	}
	// Overfull element state must be rejected.
	clone := *cp
	clone.StorageWh = []float64{1e9, 0}
	if err := resume(cfg, &clone); err == nil {
		t.Error("overfull storage state accepted")
	}
	// An environment-less (legacy) checkpoint still resumes: the fingerprint
	// check is skipped, not failed.
	legacy := *cp
	legacy.EnvFingerprint = ""
	if err := resume(cfg, &legacy); err != nil {
		t.Errorf("legacy checkpoint without fingerprint rejected: %v", err)
	}
}

// TestSeasonalEnvMovesTheNumbers is a sanity guard that the environment is
// actually wired through the physics: a midwinter-cold seasonal source must
// not reproduce the constant run's harvest.
func TestSeasonalEnvMovesTheNumbers(t *testing.T) {
	const servers, seed = 40, 9
	gcfg := trace.CommonConfig(servers)
	tr, err := trace.Generate(gcfg, trace.CanonicalSeed(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	base := smallConfig(sched.LoadBalance)
	seasonal := base
	s := env.DefaultSeasonal(1)
	s.AnnualCold = 8 // strong winter swing
	seasonal.Env = s

	run := func(cfg Config) *Result {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(base).TEGEnergy == run(seasonal).TEGEnergy {
		t.Fatal("seasonal cold side left the TEG harvest unchanged — environment not threaded")
	}
}
