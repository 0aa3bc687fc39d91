package lookup

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/units"
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

// BenchmarkDecisionSpaceBuild is the set-up every engine pays once: a
// default Build, sampling the CPU model over the 21×24×57 grid into the
// cell-major store.
func BenchmarkDecisionSpaceBuild(b *testing.B) {
	spec, axes := cpu.XeonE52650V3(), DefaultAxes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(spec, axes); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps the scalar look-ups' results live.
var benchSink units.Celsius

// BenchmarkDecisionSpaceEval is the scalar look-up of the per-circulation
// physics: CPUTemp plus OutletTemp at an operating point off every grid
// node, so all eight corners of the trilinear stencil carry weight.
func BenchmarkDecisionSpaceEval(b *testing.B) {
	s := benchSpace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = s.CPUTemp(0.437, 61.3, 44.9) + s.OutletTemp(0.437, 61.3, 44.9)
	}
}
