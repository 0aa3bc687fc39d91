package sched

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/units"
)

// The allocation regression tests pin the decision hot path's profile (the
// PR-2 acceptance criteria). The seed implementation spent 8 allocations per
// Choose (the materialized []Point candidate slice plus the map insert) and
// 3 per Decide; the flattened-table scan and the scratch buffers keep
// Choose at zero, one (the whole plane's row buffer) when the safety
// fallback runs, and every scratch-backed path at exactly zero on planes it
// has never seen.

// TestChooseMissAllocationBudget pins Choose's budget: the Step 1-3 slab
// scan allocates nothing on a plane whose slab is non-empty, and the safety
// fallback, which rereads the whole plane, at most its row buffer.
func TestChooseMissAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		tsafe units.Celsius
		want  float64
	}{{62, 0}, {200, 1}} {
		c := newController(t)
		c.TSafe = tc.tsafe
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			i++
			u := float64(i) / 1000003
			if _, _, err := c.Choose(u, c.ColdSource); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("tsafe %v: Choose = %v allocs/op, want <= %v (seed: 8)", tc.tsafe, allocs, tc.want)
		}
	}
}

// TestChooseOneShotMissAllocationFree pins an exact-quantum stream: planes
// that never repeat, at a cold side off the controller's default, each run
// the scan and allocate nothing, so they leave nothing behind.
func TestChooseOneShotMissAllocationFree(t *testing.T) {
	c := newController(t)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		u := 0.5 + float64(i)/1000003
		if _, _, err := c.Choose(u, 23.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-shot Choose = %v allocs/op, want 0", allocs)
	}
}

// TestDecideIntoAllocationFree pins the single-group steady state: a reused
// Scratch makes a full 25-server Decide allocation-free under both schemes.
func TestDecideIntoAllocationFree(t *testing.T) {
	c := newController(t)
	us := make([]float64, 25)
	for i := range us {
		us[i] = float64(i) / 25
	}
	for _, scheme := range []Scheme{Original, LoadBalance} {
		var sc Scratch
		if _, err := c.Decide(us, scheme, c.ColdSource, &sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Decide(us, scheme, c.ColdSource, &sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm Decide = %v allocs/op, want 0", scheme, allocs)
		}
	}
}

// TestDecideBatchColdLoadBalanceAllocationFree pins the month engine's steady
// state: a LoadBalance column of many circulations, at a cold side off the
// controller's default, evaluates each decided cell through the reused
// batch scratch without allocating.
func TestDecideBatchColdLoadBalanceAllocationFree(t *testing.T) {
	c := newController(t)
	col := make([]float64, 60)
	for i := range col {
		col[i] = float64(i%17) / 17
	}
	ranges := make([]Range, 6)
	scrs := make([]*Scratch, len(ranges))
	for g := range ranges {
		ranges[g] = Range{Lo: 10 * g, Hi: 10 * (g + 1)}
		scrs[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	var bs BatchScratch
	decide := func() {
		if err := c.DecideBatchCold(col, ranges, LoadBalance, 23.5, &bs, scrs, out); err != nil {
			t.Fatal(err)
		}
	}
	decide()
	if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
		t.Errorf("reused LoadBalance DecideBatchCold = %v allocs/op, want 0", allocs)
	}
}

// TestCacheStatsAllocationFree verifies the atomic counters never allocate
// (and, being lock-free, can run concurrently with decisions — the -race
// coverage lives in TestDecisionCacheConcurrentStores).
func TestCacheStatsAllocationFree(t *testing.T) {
	c := newController(t)
	if _, _, err := c.Choose(0.4, c.ColdSource); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if hits, calls := c.CacheStats(); calls < hits {
			t.Errorf("stats inverted: %d hits of %d calls", hits, calls)
		}
	})
	if allocs != 0 {
		t.Errorf("CacheStats = %v allocs/op, want 0", allocs)
	}
}

// TestDecideReusedScratchMatchesFresh pins a reused Scratch to a fresh one
// bit-for-bit, including after reuse at a different size.
func TestDecideReusedScratchMatchesFresh(t *testing.T) {
	c := newController(t)
	var sc Scratch
	for _, us := range [][]float64{
		{0.1, 0.5, 0.9, 0.25, 0.33},
		{0.7, 0.2},
		{0.05, 0.6, 0.4},
	} {
		for _, scheme := range []Scheme{Original, LoadBalance} {
			want, err := c.Decide(us, scheme, c.ColdSource, &Scratch{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Decide(us, scheme, c.ColdSource, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Setting != want.Setting || got.PlaneU != want.PlaneU ||
				got.MaxCPUTemp != want.MaxCPUTemp {
				t.Fatalf("%s: reused scratch %+v != fresh %+v", scheme, got, want)
			}
			if len(got.PerServerPower) != len(want.PerServerPower) {
				t.Fatalf("%s: length drift", scheme)
			}
			for i := range want.PerServerPower {
				if got.PerServerPower[i] != want.PerServerPower[i] ||
					got.PerServerCPUPower[i] != want.PerServerCPUPower[i] {
					t.Fatalf("%s server %d: per-server drift", scheme, i)
				}
			}
		}
	}
}
