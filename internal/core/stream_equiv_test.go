package core

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// streamEquivSchemes and streamEquivWorkers span the source-equivalence
// matrix: both schedulers and one, moderate and over-subscribed shard
// counts.
var (
	streamEquivSchemes = []sched.Scheme{sched.Original, sched.LoadBalance}
	streamEquivWorkers = []int{1, 4, 16}
)

// TestStreamingMatchesInMemory pins source equivalence: for every synthetic
// workload class, both schemes and all worker counts, running a
// GeneratorSource through RunSource must reproduce the in-memory Run of the
// materialized trace (a TraceSource) bit for bit — every summary metric and
// every IntervalResult.
func TestStreamingMatchesInMemory(t *testing.T) {
	const servers, seed = 60, 11
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		tr, err := trace.Generate(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range streamEquivSchemes {
			for _, workers := range streamEquivWorkers {
				cfg := smallConfig(scheme)
				cfg.Workers = workers

				memEng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := memEng.Run(tr)
				if err != nil {
					t.Fatal(err)
				}

				src, err := trace.NewGeneratorSource(gcfg, genSeed)
				if err != nil {
					t.Fatal(err)
				}
				streamEng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := streamEng.RunSource(src, &RunOptions{KeepSeries: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mem, stream) {
					t.Errorf("%s/%s workers=%d: streaming result differs from in-memory",
						gcfg.Class, scheme, workers)
				}

				// The bounded-memory default (no retained series) must agree on
				// every summary aggregate.
				src2, err := trace.NewGeneratorSource(gcfg, genSeed)
				if err != nil {
					t.Fatal(err)
				}
				boundedEng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				bounded, err := boundedEng.RunSource(src2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(bounded.Intervals) != 0 {
					t.Fatalf("%s/%s workers=%d: bounded run retained %d intervals",
						gcfg.Class, scheme, workers, len(bounded.Intervals))
				}
				want := *mem
				want.Intervals = nil
				if !reflect.DeepEqual(&want, bounded) {
					t.Errorf("%s/%s workers=%d: bounded-memory summary differs from in-memory",
						gcfg.Class, scheme, workers)
				}
			}
		}
	}
}

// TestStreamingMatchesInMemoryWithFaults extends the equivalence pin to a
// faulted plant: the fault injector is a pure function of
// (seed, stream, unit, interval), so the streaming path must reproduce the
// in-memory faulted run — including the FaultSummary — exactly.
func TestStreamingMatchesInMemoryWithFaults(t *testing.T) {
	const servers, seed = 60, 7
	plan := &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
		{Kind: fault.SensorStuck, Rate: 0.05},
		{Kind: fault.PumpDroop, Rate: 0.05, Severity: 0.3},
	}}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		tr, err := trace.Generate(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range streamEquivSchemes {
			cfg := smallConfig(scheme)
			cfg.Workers = 4
			cfg.Faults = plan
			cfg.FaultSeed = 99

			memEng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := memEng.Run(tr)
			if err != nil {
				t.Fatal(err)
			}

			src, err := trace.NewGeneratorSource(gcfg, genSeed)
			if err != nil {
				t.Fatal(err)
			}
			streamEng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := streamEng.RunSource(src, &RunOptions{KeepSeries: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mem, stream) {
				t.Errorf("%s/%s faulted: streaming result differs from in-memory", gcfg.Class, scheme)
			}
		}
	}
}

// TestResumeMidRunBitIdentical is the checkpoint/resume acceptance pin: a run
// halted at an interval boundary and resumed from its checkpoint — round-
// tripped through JSON, exactly as cmd/h2psim persists it — must produce the
// same Result, bit for bit, as the serial reference's uninterrupted run.
// Exercised with and without a retained series, across both schemes and
// several halt points, including a halt that does not land on the checkpoint
// cadence. The checkpoint carries no shard layout, so a run halted under two
// workers resumes under one, two and three.
func TestResumeMidRunBitIdentical(t *testing.T) {
	const servers, seed = 60, 23
	gcfg := trace.DrasticConfig(servers)
	for _, scheme := range streamEquivSchemes {
		for _, keepSeries := range []bool{true, false} {
			cfg := smallConfig(scheme)
			cfg.ServersPerCirculation = 5
			full := referenceGen(t, cfg, gcfg, trace.CanonicalSeed(seed, 0), keepSeries)
			// Drastic is 12 h / 5 min = 144 intervals; 143 halts one interval
			// before the end, 50 off the 20-interval checkpoint cadence.
			for _, haltAfter := range []int{1, 50, 143} {
				cfg.Workers = 2
				var cp *Checkpoint
				opts := &RunOptions{
					KeepSeries: keepSeries,
					HaltAfter:  haltAfter,
					Checkpoint: &CheckpointOptions{Every: 20, Write: func(c *Checkpoint) error {
						cp = c
						return nil
					}},
				}
				src, err := trace.NewGeneratorSource(gcfg, trace.CanonicalSeed(seed, 0))
				if err != nil {
					t.Fatal(err)
				}
				haltEng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := haltEng.RunSource(src, opts); err != ErrHalted {
					t.Fatalf("%s halt=%d: err = %v, want ErrHalted", scheme, haltAfter, err)
				}
				if cp == nil || cp.NextInterval != haltAfter {
					t.Fatalf("%s halt=%d: checkpoint = %+v", scheme, haltAfter, cp)
				}

				// Round-trip through JSON: resume must survive persistence, not
				// just in-process handoff. float64 and time.Duration both
				// round-trip exactly through encoding/json.
				blob, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3} {
					restored := new(Checkpoint)
					if err := json.Unmarshal(blob, restored); err != nil {
						t.Fatal(err)
					}
					cfg.Workers = workers
					resumed := runStream(t, cfg, gcfg, seed, &RunOptions{KeepSeries: keepSeries, Resume: restored})
					if !reflect.DeepEqual(full, resumed) {
						t.Errorf("%s halt=%d keepSeries=%v workers=%d: resumed result differs from the serial reference",
							scheme, haltAfter, keepSeries, workers)
					}
				}
			}
		}
	}
}

// runStream runs the canonical generator source for gcfg under cfg on a
// fresh engine.
func runStream(t *testing.T, cfg Config, gcfg trace.GeneratorConfig, seed int64, opts *RunOptions) *Result {
	t.Helper()
	src, err := trace.NewGeneratorSource(gcfg, trace.CanonicalSeed(seed, 0))
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

// TestResumeSeekVersusReplay pins the two resume positioning strategies
// against each other: a TraceSource (random access via SeekInterval) and a
// GeneratorSource (replay-and-discard) resumed from the same checkpoint must
// produce identical results.
func TestResumeSeekVersusReplay(t *testing.T) {
	const servers, seed, haltAfter = 40, 5, 30
	gcfg := trace.IrregularConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	tr, err := trace.Generate(gcfg, genSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.LoadBalance)
	cfg.Workers = 2

	var cp *Checkpoint
	opts := &RunOptions{
		KeepSeries: true,
		HaltAfter:  haltAfter,
		Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error { cp = c; return nil }},
	}
	src, err := trace.NewGeneratorSource(gcfg, genSeed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSource(src, opts); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}

	resumeOpts := func() *RunOptions { return &RunOptions{KeepSeries: true, Resume: cp} }

	replaySrc, err := trace.NewGeneratorSource(gcfg, genSeed)
	if err != nil {
		t.Fatal(err)
	}
	replayEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := replayEng.RunSource(replaySrc, resumeOpts())
	if err != nil {
		t.Fatal(err)
	}

	seekSrc, err := trace.NewTraceSource(tr)
	if err != nil {
		t.Fatal(err)
	}
	seekEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seek, err := seekEng.RunSource(seekSrc, resumeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, seek) {
		t.Error("replay-resumed and seek-resumed results differ")
	}
}

// TestCheckpointValidation rejects checkpoints that do not match the run
// they are resumed into: wrong trace identity, wrong scheme, out-of-range
// progress, missing series, wrong sensor count, wrong version.
func TestCheckpointValidation(t *testing.T) {
	const servers, seed, haltAfter = 40, 3, 10
	gcfg := trace.CommonConfig(servers)
	genSeed := trace.CanonicalSeed(seed, 0)
	cfg := smallConfig(sched.Original)

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
		KeepSeries: true,
		HaltAfter:  haltAfter,
		Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error { cp = c; return nil }},
	}); err != ErrHalted {
		t.Fatalf("err = %v, want ErrHalted", err)
	}

	mutations := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"version", func(c *Checkpoint) { c.Version = CheckpointVersion + 1 }},
		{"trace name", func(c *Checkpoint) { c.TraceName = "other" }},
		{"scheme", func(c *Checkpoint) { c.Scheme = sched.LoadBalance }},
		{"servers", func(c *Checkpoint) { c.Servers = servers + 1 }},
		{"intervals", func(c *Checkpoint) { c.Intervals++ }},
		{"interval duration", func(c *Checkpoint) { c.Interval++ }},
		{"zero progress", func(c *Checkpoint) { c.NextInterval = 0 }},
		{"past end", func(c *Checkpoint) { c.NextInterval = c.Intervals }},
		{"sensor count", func(c *Checkpoint) { c.Sensors = c.Sensors[:len(c.Sensors)-1] }},
		{"series length", func(c *Checkpoint) { c.Series = c.Series[:1] }},
	}
	for _, m := range mutations {
		// Deep-enough copy: the mutations only reslice or overwrite scalars.
		clone := *cp
		clone.Sensors = append(clone.Sensors[:0:0], cp.Sensors...)
		clone.Series = append(clone.Series[:0:0], cp.Series...)
		m.mutate(&clone)

		src, err := trace.NewGeneratorSource(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunSourceContext(context.Background(), src, &RunOptions{KeepSeries: true, Resume: &clone}); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", m.name)
		}
	}
}

// closeCounter counts Close calls on a shared source.
type closeCounter struct {
	trace.Source
	closes atomic.Int32
}

func (c *closeCounter) Close() error { c.closes.Add(1); return nil }

// TestRunSourcesSharedDecode pins the fleet over one decode shared through
// trace.Tee: the results match runs over private sources bit for bit, and a
// run whose engine build fails still closes its branch, so its sibling
// neither stalls behind it nor leaves the source open.
func TestRunSourcesSharedDecode(t *testing.T) {
	gcfg := trace.DrasticConfig(60)
	open := func() (trace.Source, error) { return trace.NewGeneratorSource(gcfg, 3) }
	cfg := DefaultConfig(sched.Original)
	cfg.ServersPerCirculation = 20
	fleet := NewFleet()
	shared := func(schemes ...sched.Scheme) ([]*Result, *closeCounter, error) {
		g, err := open()
		if err != nil {
			t.Fatal(err)
		}
		src := &closeCounter{Source: g}
		branches := trace.Tee(src, len(schemes))
		runs := make([]SourceRun, len(schemes))
		for i, s := range schemes {
			b := branches[i]
			runs[i] = SourceRun{Open: func() (trace.Source, error) { return b, nil }, Scheme: s}
		}
		done := make(chan struct{})
		var rs []*Result
		go func() { rs, err = fleet.RunSourcesContext(context.Background(), cfg, runs); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("shared-decode runs did not return")
		}
		return rs, src, err
	}

	want, err := fleet.RunSourcesContext(context.Background(), cfg, []SourceRun{
		{Open: open, Scheme: sched.Original}, {Open: open, Scheme: sched.LoadBalance},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, src, err := shared(sched.Original, sched.LoadBalance)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("runs over one shared decode differ from runs over private sources")
	}
	if n := src.closes.Load(); n != 1 {
		t.Errorf("shared source closed %d times, want 1", n)
	}

	_, src, err = shared("bogus", sched.LoadBalance)
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("err = %v, want the failed engine build's error", err)
	}
	if n := src.closes.Load(); n != 1 {
		t.Errorf("shared source closed %d times after a failed engine build, want 1", n)
	}
}
