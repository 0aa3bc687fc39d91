package sched

import (
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/units"
)

// coldTestController builds a fully wired controller over the shared fuzz
// space (immutable, so sharing it across tests is safe).
func coldTestController(t *testing.T) *Controller {
	t.Helper()
	space, mod := fuzzSpace()
	c, err := NewController(space, mod, 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestColdVariantsMatchDefaultAtColdSource pins the refactor's core
// equivalence: every *Cold entry point evaluated at the controller's own
// ColdSource is bit-identical to the historical cold-agnostic call.
func TestColdVariantsMatchDefaultAtColdSource(t *testing.T) {
	a := coldTestController(t)
	b := coldTestController(t)
	us := []float64{0.1, 0.45, 0.45, 0.83, 0.99, 0.3}
	for _, scheme := range []Scheme{Original, LoadBalance} {
		var sa, sb Scratch
		da, errA := a.DecideInto(us, scheme, &sa)
		db, errB := b.DecideIntoCold(us, scheme, b.ColdSource, &sb)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", scheme, errA, errB)
		}
		if da.Setting != db.Setting || da.PlaneU != db.PlaneU || da.MaxCPUTemp != db.MaxCPUTemp {
			t.Fatalf("%s: decisions differ: %+v vs %+v", scheme, da, db)
		}
		for i := range da.PerServerPower {
			if da.PerServerPower[i] != db.PerServerPower[i] {
				t.Fatalf("%s: server %d power %v vs %v", scheme, i, da.PerServerPower[i], db.PerServerPower[i])
			}
		}
	}
	// Scalar entry points too.
	sA, pA, errA := a.Choose(0.6)
	sB, pB, errB := b.ChooseCold(0.6, b.ColdSource)
	if errA != nil || errB != nil || sA != sB || pA != pB {
		t.Fatalf("Choose vs ChooseCold: %v/%v/%v vs %v/%v/%v", sA, pA, errA, sB, pB, errB)
	}
	set := Setting{Flow: 150, Inlet: 40}
	if a.PowerAt(set, 0.5) != b.PowerAtCold(set, 0.5, b.ColdSource) {
		t.Fatal("PowerAt != PowerAtCold at ColdSource")
	}
}

// TestColdSideChangesDecisionIndependently verifies the cache keeps
// decisions made under different cold sides separate and physically ordered:
// a colder TEG cold side strictly increases the harvest at the same plane.
func TestColdSideChangesDecisionIndependently(t *testing.T) {
	c := coldTestController(t)
	_, pWarm, err := c.ChooseCold(0.6, 26)
	if err != nil {
		t.Fatal(err)
	}
	_, pCold, err := c.ChooseCold(0.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pCold <= pWarm {
		t.Fatalf("colder cold side must raise max power: cold=12 -> %v, cold=26 -> %v", pCold, pWarm)
	}
	// Revisit both colds: the cached entries must reproduce the first pass
	// exactly (no aliasing between the two).
	_, pWarm2, _ := c.ChooseCold(0.6, 26)
	_, pCold2, _ := c.ChooseCold(0.6, 12)
	if pWarm2 != pWarm || pCold2 != pCold {
		t.Fatalf("cached revisit drifted: warm %v->%v cold %v->%v", pWarm, pWarm2, pCold, pCold2)
	}
}

// TestDecideBatchColdMatchesSerialCold pins the batched kernel against the
// scalar referee at a non-default cold side, the same contract the existing
// equivalence suites pin at the default.
func TestDecideBatchColdMatchesSerialCold(t *testing.T) {
	batchCtl := coldTestController(t)
	serialCtl := coldTestController(t)
	col := []float64{0.2, 0.4, 0.9, 0.9, 0.1, 0.55, 0.55, 0.7}
	ranges := []Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: 8}}
	for _, cold := range []units.Celsius{12, 20, 27.5} {
		for _, scheme := range []Scheme{Original, LoadBalance} {
			var bs BatchScratch
			scrs := make([]*Scratch, len(ranges))
			for i := range scrs {
				scrs[i] = &Scratch{}
			}
			out := make([]Decision, len(ranges))
			if err := batchCtl.DecideBatchCold(col, ranges, scheme, cold, &bs, scrs, out); err != nil {
				t.Fatalf("cold=%v %s: %v", cold, scheme, err)
			}
			for g, r := range ranges {
				var sc Scratch
				want, err := serialCtl.DecideSerialCold(col[r.Lo:r.Hi], scheme, cold, &sc)
				if err != nil {
					t.Fatalf("cold=%v %s group %d: %v", cold, scheme, g, err)
				}
				got := out[g]
				if got.Setting != want.Setting || got.PlaneU != want.PlaneU || got.MaxCPUTemp != want.MaxCPUTemp ||
					math.Float64bits(float64(got.PlaneOutlet)) != math.Float64bits(float64(want.PlaneOutlet)) {
					t.Fatalf("cold=%v %s group %d: %+v vs %+v", cold, scheme, g, got, want)
				}
				for i := range want.PerServerPower {
					if got.PerServerPower[i] != want.PerServerPower[i] {
						t.Fatalf("cold=%v %s group %d server %d: %v vs %v",
							cold, scheme, g, i, got.PerServerPower[i], want.PerServerPower[i])
					}
					if got.PerServerCPUPower[i] != want.PerServerCPUPower[i] {
						t.Fatalf("cold=%v %s group %d server %d cpu: %v vs %v",
							cold, scheme, g, i, got.PerServerCPUPower[i], want.PerServerCPUPower[i])
					}
				}
			}
		}
	}
}
