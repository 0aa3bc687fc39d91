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

// TestColdVariantsMatchDefaultAtColdSource pins the explicit cold side at
// the controller's default: Decide, Choose and PowerAt evaluated at
// ColdSource reproduce the scalar referee, an independent controller and the
// module's own MaxPower bit for bit.
func TestColdVariantsMatchDefaultAtColdSource(t *testing.T) {
	a := coldTestController(t)
	b := coldTestController(t)
	us := []float64{0.1, 0.45, 0.45, 0.83, 0.99, 0.3}
	for _, scheme := range []Scheme{Original, LoadBalance} {
		var sc Scratch
		got, err := a.Decide(us, scheme, a.ColdSource, &sc)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		want, err := b.decideSerial(us, scheme, b.ColdSource)
		if err != nil {
			t.Fatalf("%s: referee: %v", scheme, err)
		}
		if !decisionsEqual(got, want) {
			t.Fatalf("%s: Decide %+v != referee %+v", scheme, got, want)
		}
	}
	sA, pA, errA := a.Choose(0.6, a.ColdSource)
	sB, pB, errB := coldTestController(t).Choose(0.6, b.ColdSource)
	if errA != nil || errB != nil || sA != sB || pA != pB {
		t.Fatalf("warm vs fresh Choose: %v/%v/%v vs %v/%v/%v", sA, pA, errA, sB, pB, errB)
	}
	set := Setting{Flow: 150, Inlet: 40}
	dT := a.Space.OutletTemp(0.5, set.Flow, set.Inlet) - a.ColdSource
	if got, want := a.PowerAt(set, 0.5, a.ColdSource), a.Module.MaxPower(dT, set.Flow); got != want {
		t.Fatalf("PowerAt at ColdSource = %v, module MaxPower = %v", got, want)
	}
}

// TestColdSideChangesDecisionIndependently verifies decisions made under
// different cold sides stay separate and physically ordered:
// a colder TEG cold side strictly increases the harvest at the same plane.
func TestColdSideChangesDecisionIndependently(t *testing.T) {
	c := coldTestController(t)
	_, pWarm, err := c.Choose(0.6, 26)
	if err != nil {
		t.Fatal(err)
	}
	_, pCold, err := c.Choose(0.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pCold <= pWarm {
		t.Fatalf("colder cold side must raise max power: cold=12 -> %v, cold=26 -> %v", pCold, pWarm)
	}
	// Revisit both colds: the decisions must reproduce the first pass
	// exactly (no aliasing between the two).
	_, pWarm2, _ := c.Choose(0.6, 26)
	_, pCold2, _ := c.Choose(0.6, 12)
	if pWarm2 != pWarm || pCold2 != pCold {
		t.Fatalf("revisit drifted: warm %v->%v cold %v->%v", pWarm, pWarm2, pCold, pCold2)
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
				want, err := serialCtl.decideSerial(col[r.Lo:r.Hi], scheme, cold)
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
