package core

import (
	"math"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// The guard at the top of RunContext ("trace has no servers to form a
// circulation") used to be asserted only by a comment: trace.Validate rejects
// degenerate traces first on every public path, so the guard was unreachable
// and untested. These tests pin both layers independently, so neither can be
// deleted without a failure pointing at the NaN it would reintroduce.

// An empty circulation set must surface the guard error, not run on to the
// per-circulation means (whose 0/0 would be NaN).
func TestRunRejectsServerlessTrace(t *testing.T) {
	eng, err := NewEngine(smallConfig(sched.Original))
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built trace with intervals but no server rows: it bypasses
	// trace.New's argument checks, and Validate happens to accept it as an
	// empty rectangle — exactly the degenerate shape the guard exists for.
	degenerate := &trace.Trace{Name: "serverless", Class: trace.Common, Interval: 5 * time.Minute}
	if degenerate.Servers() != 0 {
		t.Fatal("degenerate trace unexpectedly has servers")
	}
	if _, err := eng.Run(degenerate); err == nil {
		t.Fatal("serverless trace must not run")
	}
	if n := eng.cfg.Circulations(0); n != 0 {
		t.Fatalf("Circulations(0) = %d, should partition nothing", n)
	}
}

// MergeInterval itself must not emit NaN for an empty or fully-degraded
// part set — the second half of the guard's job, now enforced structurally.
func TestMergeIntervalEmptyPartsNoNaN(t *testing.T) {
	for name, parts := range map[string][]CirculationInterval{
		"empty":        {},
		"all-degraded": {{Degraded: true}, {Degraded: true}},
	} {
		ir := MergeInterval([]float64{0.5}, parts)
		for field, v := range map[string]float64{
			"MeanInlet":         float64(ir.MeanInlet),
			"MeanFlow":          float64(ir.MeanFlow),
			"MeanOutlet":        float64(ir.MeanOutlet),
			"TEGPowerPerServer": float64(ir.TEGPowerPerServer),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, field, v)
			}
		}
	}
}

// A zero-flow interval (a fully-drooped pump) divides no flow into the TEG
// mean: power is zero, never negative or NaN.
func TestMergeIntervalZeroFlowInterval(t *testing.T) {
	parts := []CirculationInterval{{
		TEGPower: 0, CPUPower: 50, Inlet: 30, Flow: 0, Outlet: 30, TEGServers: 2,
	}}
	ir := MergeInterval([]float64{0.1, 0.1}, parts)
	if ir.MeanFlow != 0 || ir.TEGPowerPerServer != 0 {
		t.Fatalf("zero-flow merge: %+v", ir)
	}
	if math.IsNaN(float64(ir.MeanOutlet)) {
		t.Fatal("zero-flow merge produced NaN outlet")
	}
}
