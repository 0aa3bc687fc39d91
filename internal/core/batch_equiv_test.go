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
// the batched interval path (the default) must reproduce the legacy
// per-circulation path (DisableBatch) of the serial reference loop bit for
// bit — every summary metric and every IntervalResult.
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
				serialCfg := cfg
				serialCfg.DisableBatch = true
				want := referenceTrace(t, serialCfg, tr)
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
						t.Errorf("%s/%s workers=%d plan=%d: batch result differs from serial",
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

		serialCfg := cfg
		serialCfg.DisableBatch = true
		serialEng, err := NewEngine(serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialEng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		batchEng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batchEng.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s quantized: batch result differs from serial", scheme)
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
// path: a poisoned column must surface the same lowest-circulation error,
// with the same message, on both paths.
func TestBatchDecideErrorMatchesSerial(t *testing.T) {
	const servers = 60
	gcfg := trace.CommonConfig(servers)
	poisoned := func() trace.Source {
		src, err := trace.NewGeneratorSource(gcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Utilization above 1 fails Choose's validation in circulation 1
		// (servers 20-39).
		return &poisonedSource{Source: src, interval: 5, server: 25, value: 1.75}
	}
	for _, workers := range streamEquivWorkers {
		cfg := smallConfig(sched.Original)
		cfg.Workers = workers

		serialCfg := cfg
		serialCfg.DisableBatch = true
		serialEng, err := NewEngine(serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		_, serialErr := serialEng.RunSource(poisoned(), nil)
		if serialErr == nil {
			t.Fatal("serial engine accepted a poisoned column")
		}
		batchEng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, batchErr := batchEng.RunSource(poisoned(), nil)
		if batchErr == nil {
			t.Fatal("batch engine accepted a poisoned column")
		}
		if serialErr.Error() != batchErr.Error() {
			t.Errorf("workers=%d: batch error %q != serial %q", workers, batchErr, serialErr)
		}
	}
}

// TestBatchDecideErrorDegradesUnderInjector checks the injector-active
// decide-failure fallback: when the batch decision fails for a block under
// an active fault plan, the block re-runs the legacy per-circulation path,
// so the poisoned circulation degrades (exactly as serially) instead of
// aborting the run.
func TestBatchDecideErrorDegradesUnderInjector(t *testing.T) {
	const servers = 60
	gcfg := trace.CommonConfig(servers)
	poisoned := func() trace.Source {
		src, err := trace.NewGeneratorSource(gcfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &poisonedSource{Source: src, interval: 3, server: 25, value: 1.75}
	}
	cfg := smallConfig(sched.Original)
	cfg.Workers = 4
	cfg.Faults = &fault.Plan{Specs: []fault.Spec{{Kind: fault.TEGDegrade, Rate: 0.05, Severity: 0.5}}}
	cfg.FaultSeed = 5

	serialCfg := cfg
	serialCfg.DisableBatch = true
	serialEng, err := NewEngine(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialEng.RunSource(poisoned(), nil)
	if err != nil {
		t.Fatalf("serial faulted engine errored instead of degrading: %v", err)
	}
	batchEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batchEng.RunSource(poisoned(), nil)
	if err != nil {
		t.Fatalf("batch faulted engine errored instead of degrading: %v", err)
	}
	if want.Faults.DegradedIntervals == 0 {
		t.Fatal("poisoned circulation did not degrade on the serial path")
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("batch faulted result differs from serial")
	}
}
