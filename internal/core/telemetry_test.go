package core

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestTelemetryDoesNotPerturbResults pins the acceptance criterion that
// matters most: attaching a registry must leave every number of the run
// bit-identical — instruments observe the simulation, never participate.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	tr, err := trace.Generate(trace.DrasticConfig(80), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
		cfg := smallConfig(scheme)
		plain, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Run(tr)
		if err != nil {
			t.Fatal(err)
		}

		cfg.Telemetry = telemetry.New()
		inst, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Run(tr)
		if err != nil {
			t.Fatal(err)
		}

		if got.AvgTEGPowerPerServer != want.AvgTEGPowerPerServer ||
			got.PeakTEGPowerPerServer != want.PeakTEGPowerPerServer ||
			got.PRE != want.PRE || got.TEGEnergy != want.TEGEnergy {
			t.Fatalf("%s: instrumented headline drifted: %+v vs %+v", scheme, got, want)
		}
		for i := range want.Intervals {
			w, g := want.Intervals[i], got.Intervals[i]
			if g != w {
				t.Fatalf("%s interval %d: instrumented run drifted: %+v vs %+v", scheme, i, g, w)
			}
		}
	}
}

// TestTelemetryPopulatedByRun checks one instrumented run fills every layer's
// instruments: engine interval/step counters and latency histograms, the
// harvested-power and outlet-temperature histograms, the decision counters
// threaded from sched, and interval/circulation spans in the tracer.
func TestTelemetryPopulatedByRun(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(sched.Original) // 60 servers / 20 per circulation = 3
	// One shard hands every interval to the merger in order, which makes
	// the merge-wait span count exact.
	cfg.Workers = 1
	reg := telemetry.New()
	cfg.Telemetry = reg
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	intervals := uint64(tr.Intervals())
	steps := intervals * 3
	counters := map[string]uint64{}
	hists := map[string]telemetry.HistogramSnapshot{}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, h := range snap.Histograms {
		hists[h.Name] = h
	}

	if got := counters["h2p_engine_intervals_total"]; got != intervals {
		t.Errorf("intervals counter = %d, want %d", got, intervals)
	}
	if got := counters["h2p_engine_circulation_steps_total"]; got != steps {
		t.Errorf("steps counter = %d, want %d", got, steps)
	}
	if got := counters["h2p_decision_cache_calls_total"]; got != steps {
		t.Errorf("decision calls = %d, want one per circulation step %d", got, steps)
	}
	// The RC-network counters come from the transient validator, which shares
	// the engine's registry.
	if _, err := eng.ValidateQuasiStatic(tr, 2); err != nil {
		t.Fatal(err)
	}
	snapAfter := reg.Snapshot()
	advances := uint64(0)
	for _, c := range snapAfter.Counters {
		if c.Name == "h2p_thermalnet_advances_total" {
			advances = c.Value
		}
	}
	if advances == 0 {
		t.Error("thermalnet advances not counted by the validator")
	}

	if h := hists["h2p_engine_interval_seconds"]; h.Count != intervals {
		t.Errorf("interval latency count = %d, want %d", h.Count, intervals)
	}
	if h := hists["h2p_engine_circulation_step_seconds"]; h.Count != steps {
		t.Errorf("step latency count = %d, want %d", h.Count, steps)
	}
	power := hists["h2p_interval_teg_power_watts_per_server"]
	if power.Count != intervals || power.Mean <= 0 {
		t.Errorf("harvested-power histogram count=%d mean=%v", power.Count, power.Mean)
	}
	outlet := hists["h2p_circulation_outlet_celsius"]
	if outlet.Count != steps {
		t.Errorf("outlet histogram count = %d, want %d", outlet.Count, steps)
	}
	if outlet.Mean < 30 || outlet.Mean > 65 {
		t.Errorf("outlet mean %v ℃ outside plausible warm-water band", outlet.Mean)
	}

	// One circulation span per step, plus per interval one span each for
	// the interval, its decode, the merger's wait and the shard's step.
	if want := 4*intervals + steps; snap.SpansRecorded != want {
		t.Errorf("spans recorded = %d, want %d", snap.SpansRecorded, want)
	}

	// The new MeanOutlet field must agree with the histogram's aggregate.
	var sum float64
	for _, ir := range res.Intervals {
		if ir.MeanOutlet <= 0 {
			t.Fatalf("interval MeanOutlet %v not populated", ir.MeanOutlet)
		}
		sum += float64(ir.MeanOutlet)
	}
	mean := sum / float64(len(res.Intervals))
	if diff := mean - outlet.Mean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("result MeanOutlet mean %v != outlet histogram mean %v", mean, outlet.Mean)
	}
}

// TestSharedRegistryAggregatesEngines checks two engines on one registry
// fold into one series per metric rather than colliding.
func TestSharedRegistryAggregatesEngines(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(40), 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg := smallConfig(sched.Original)
	cfg.Telemetry = reg
	for i := 0; i < 2; i++ {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	want := uint64(2 * tr.Intervals())
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "h2p_engine_intervals_total" && c.Value != want {
			t.Errorf("aggregated intervals = %d, want %d", c.Value, want)
		}
	}
}
