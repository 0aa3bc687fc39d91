package sched

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/teg"
)

// The decision-path benchmarks: the per-interval Step 1-3 selection is the
// inner loop of every trace-driven experiment, so its cost and allocation
// profile are tracked across PRs (make bench writes them to
// BENCH_decision.json).

func benchController(b *testing.B) *Controller {
	b.Helper()
	space, err := lookup.Build(cpu.XeonE52650V3(), lookup.DefaultAxes())
	if err != nil {
		b.Fatal(err)
	}
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		b.Fatal(err)
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	c, err := NewController(space, mod, 20)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkDecisionChooseMiss measures Steps 1-3 on a fresh plane every
// iteration: the slab intersection and the candidate power scan up to its
// early exit.
func BenchmarkDecisionChooseMiss(b *testing.B) {
	c := benchController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := float64(i%1000003) / 1000003
		if _, _, err := c.Choose(u, c.ColdSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionDecide measures one full control interval for a 25-server
// circulation through a reused scratch — the steady-state per-circulation
// cost, expected allocation-free.
func BenchmarkDecisionDecide(b *testing.B) {
	c := benchController(b)
	us := make([]float64, 25)
	for i := range us {
		us[i] = float64(i) / 25
	}
	var sc Scratch
	if _, err := c.Decide(us, LoadBalance, c.ColdSource, &sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decide(us, LoadBalance, c.ColdSource, &sc); err != nil {
			b.Fatal(err)
		}
	}
}
