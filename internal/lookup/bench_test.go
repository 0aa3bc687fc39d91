package lookup

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
)

// The Decision* benchmarks feed make bench / BENCH_decision.json alongside
// the controller benchmarks in internal/sched: they isolate the look-up
// space's own queries.

func benchSpace(b *testing.B) *Space {
	b.Helper()
	s, err := Build(cpu.XeonE52650V3(), DefaultAxes())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkDecisionPlaneMaterialize is the Fig. 13 query: build the full
// []Point candidate slice for one utilization plane over Space.At.
func BenchmarkDecisionPlaneMaterialize(b *testing.B) {
	s := benchSpace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := s.PlaneIntersection(0.25, 62, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no candidates")
		}
	}
}
