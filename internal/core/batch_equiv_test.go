package core

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// degradePlan is the equivalence matrix's faulted plant: 10% of TEG modules
// degraded to half output, plus transient step errors exercising the batch
// path's retry handling.
func degradePlan() *fault.Plan {
	return &fault.Plan{Specs: []fault.Spec{
		{Kind: fault.TEGDegrade, Rate: 0.10, Severity: 0.5},
		{Kind: fault.StepError, Rate: 0.02},
	}}
}

// TestBatchMatchesSerialEngine is the batch kernel's acceptance pin at the
// engine layer: for every trace class, scheme, worker count and fault plan,
// the run loop must reproduce the serial referee (one ShardRunner, no
// pipeline) bit for bit — every summary metric and every IntervalResult.
// The scalar half of the contract — the batch kernel against the per-server
// trilinear loop — is pinned in internal/sched by its equivalence suites and
// FuzzDecideBatchEquivalence.
func TestBatchMatchesSerialEngine(t *testing.T) {
	const servers, seed = 60, 31
	plans := []*fault.Plan{nil, degradePlan()}
	for i, gcfg := range trace.CanonicalConfigs(servers) {
		genSeed := trace.CanonicalSeed(seed, i)
		tr, err := trace.Generate(gcfg, genSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range streamEquivSchemes {
			for p, plan := range plans {
				cfg := smallConfig(scheme)
				cfg.Faults = plan
				cfg.FaultSeed = 77
				want := referenceTrace(t, cfg, tr)
				for _, workers := range streamEquivWorkers {
					cfg.Workers = workers
					batchEng, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := batchEng.Run(tr)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s/%s workers=%d plan=%d: run differs from the serial referee",
							gcfg.Class, scheme, workers, p)
					}
				}
			}
		}
	}
}

// TestBatchMatchesSerialQuantized extends the engine pin to a quantized
// decision cache, where the batch key dedup actually collapses groups.
func TestBatchMatchesSerialQuantized(t *testing.T) {
	const servers, seed = 60, 13
	gcfg := trace.CommonConfig(servers)
	tr, err := trace.Generate(gcfg, trace.CanonicalSeed(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range streamEquivSchemes {
		cfg := smallConfig(scheme)
		cfg.Workers = 4
		cfg.DecisionQuantum = 1.0 / 512
		want := referenceTrace(t, cfg, tr)
		batchEng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batchEng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s quantized: run differs from the serial referee", scheme)
		}
	}
}

// poisonedSource wraps a valid generator source but overwrites one server's
// utilization in one interval with an out-of-range value — trace-level
// validation never sees it, so the failure reaches the decide path exactly
// where the equivalence matters.
type poisonedSource struct {
	trace.Source
	interval, server int
	value            float64
}

func (p *poisonedSource) NextColumn(dst []float64) (int, error) {
	got, err := p.Source.NextColumn(dst)
	if err == nil && got == p.interval {
		dst[p.server] = p.value
	}
	return got, err
}

// TestBatchDecideErrorMatchesSerial checks the no-injector decide-failure
// path: a poisoned column must surface the lowest failing circulation's
// error, with exactly the text the per-circulation scalar decide loop
// printed for this column, for every worker count.
func TestBatchDecideErrorMatchesSerial(t *testing.T) {
	const servers = 60
	const want = "interval 5 circulation 1: sched: utilization 1.75 outside [0,1]"
	gcfg := trace.CommonConfig(servers)
	for _, workers := range streamEquivWorkers {
		src, err := trace.NewGeneratorSource(gcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(sched.Original)
		cfg.Workers = workers
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Utilization above 1 fails Choose's validation in circulation 1
		// (servers 20-39).
		_, err = eng.RunSource(&poisonedSource{Source: src, interval: 5, server: 25, value: 1.75}, nil)
		if err == nil {
			t.Fatal("engine accepted a poisoned column")
		}
		if err.Error() != want {
			t.Errorf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

// TestBatchDecideErrorDegradesUnderInjector checks the injector-active
// decide-failure fallback: when the batch decision fails for a block under
// an active fault plan, each circulation is decided alone, so the poisoned
// circulation degrades after every retry attempt instead of aborting the
// run, and every other circulation finishes exactly as in an unpoisoned run.
func TestBatchDecideErrorDegradesUnderInjector(t *testing.T) {
	const servers, poisoned = 60, 3
	gcfg := trace.CommonConfig(servers)
	cfg := smallConfig(sched.Original)
	cfg.Workers = 4
	cfg.Faults = &fault.Plan{Specs: []fault.Spec{{Kind: fault.TEGDegrade, Rate: 0.05, Severity: 0.5}}}
	cfg.FaultSeed = 5
	run := func(poison bool) *Result {
		var src trace.Source
		src, err := trace.NewGeneratorSource(gcfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if poison {
			src = &poisonedSource{Source: src, interval: poisoned, server: 25, value: 1.75}
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunSource(src, &RunOptions{KeepSeries: true})
		if err != nil {
			t.Fatalf("poison=%v: faulted engine errored instead of degrading: %v", poison, err)
		}
		return res
	}
	clean, got := run(false), run(true)
	retries := cfg.Faults.Retry.Attempts() - 1
	if got.Faults.DegradedIntervals != 1 || got.Faults.StepRetries != int64(retries) {
		t.Fatalf("faults %+v: want exactly one degraded circulation-interval with %d retries",
			got.Faults, retries)
	}
	if len(got.Intervals) != len(clean.Intervals) {
		t.Fatalf("%d intervals, unpoisoned run has %d", len(got.Intervals), len(clean.Intervals))
	}
	for i := range got.Intervals {
		if i == poisoned {
			if ir := got.Intervals[i]; ir.DegradedCirculations != 1 || ir.StepRetries != retries {
				t.Errorf("interval %d: %d degraded circulations, %d retries; want 1 and %d",
					i, ir.DegradedCirculations, ir.StepRetries, retries)
			}
			continue
		}
		if got.Intervals[i] != clean.Intervals[i] {
			t.Errorf("interval %d differs from the unpoisoned run", i)
		}
	}
}
