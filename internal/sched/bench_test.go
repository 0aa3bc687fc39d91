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

// BenchmarkDecisionChooseMiss measures the uncached Steps 1-3: every
// iteration queries a fresh plane so the slab intersection and the candidate
// power scan run in full.
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

// BenchmarkDecisionChooseHit measures a warm cache: the same plane is chosen
// repeatedly, so Choose must be a pure cache read.
func BenchmarkDecisionChooseHit(b *testing.B) {
	c := benchController(b)
	if _, _, err := c.Choose(0.25, c.ColdSource); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Choose(0.25, c.ColdSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecisionChooseHitParallel hammers the warm cache from all CPUs:
// the contention profile of the parallel engine's workers, which all consult
// one shared controller.
func BenchmarkDecisionChooseHitParallel(b *testing.B) {
	c := benchController(b)
	for i := 0; i <= 64; i++ {
		if _, _, err := c.Choose(float64(i)/64, c.ColdSource); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := float64(i%65) / 64
			i++
			if _, _, err := c.Choose(u, c.ColdSource); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecisionDecide measures one full control interval for a 25-server
// circulation with a warm decision cache, through the scratch each engine
// circulation holds — the steady-state per-circulation cost, expected
// allocation-free.
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
