package sched

import (
	"math"
	"math/rand"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/units"
)

// TestCPUPowerColumnMatchesSpec pins the batch kernel's hoisted Eq. 20 to
// cpu.Spec.Power bit for bit, for every SKU: the clamp's edges and just
// past them, signed zeros, subnormals, infinities and NaN, then a million
// seeded utilizations over [-0.1, 1.1).
func TestCPUPowerColumnMatchesSpec(t *testing.T) {
	us := []float64{
		0, math.Copysign(0, -1), 1, 0.5,
		math.Nextafter(0, -1), math.Nextafter(1, 2), math.Nextafter(1, 0),
		-1e-300, 1 + 1e-15, -0.25, 1.25,
		math.SmallestNonzeroFloat64, 0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(20))
	for range 1 << 20 {
		us = append(us, rng.Float64()*1.2-0.1)
	}
	got := make([]units.Watts, len(us))
	for _, spec := range []cpu.Spec{cpu.XeonE52650V3(), cpu.XeonE52680V4(), cpu.XeonD1540()} {
		cpuPowerColumn(spec.PowerLogCoeff, spec.PowerLogShift, spec.PowerOffset, us, got)
		for i, u := range us {
			want := spec.Power(u)
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want)) {
				t.Fatalf("%s u=%v (%#x): column %v, Spec.Power %v", spec.Model, u, math.Float64bits(u), got[i], want)
			}
		}
	}
}
