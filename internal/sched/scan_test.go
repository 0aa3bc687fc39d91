package sched

import (
	"errors"
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/units"
)

// scanController builds a controller over a space with the given
// utilization axis (the default flow and inlet axes).
func scanController(t *testing.T, uAxis []float64) *Controller {
	t.Helper()
	ax := lookup.DefaultAxes()
	ax.Utilization = uAxis
	space, err := lookup.Build(cpu.XeonE52650V3(), ax)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		t.Fatal(err)
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	c, err := NewController(space, mod, 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// visitFold is the kernel's referee: it folds the points a scalar visitor
// streams, counting them and taking the first strictly greatest powerAt.
func visitFold(t *testing.T, c *Controller, cold float64, visit func(func(int, lookup.Point) bool) error) (int, units.Watts, int32) {
	t.Helper()
	n, best, bestCell := 0, units.Watts(-1), int32(0)
	err := visit(func(cell int, p lookup.Point) bool {
		n++
		if pw := c.curve.powerAt(cell, p.Outlet, cold); pw > best {
			best, bestCell = pw, int32(cell)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, best, bestCell
}

// TestScanRowsMatchesVisitFold pins the fused miss-scan kernel against the
// scalar visitor folds: on a dense sweep of planes through every
// utilization segment, the kernel over SlabRows with the band must match a
// VisitPlaneIntersection + powerAt fold, and the kernel over PlaneRows with
// [-Inf, TSafe+Band] must match the fallback's VisitPlane fold keeping
// CPUTemp <= TSafe+Band — member count, best power bits and best cell. The
// sweep runs on the default axis, on a custom axis off which the unit
// planes extrapolate, and with a band no plane reaches (every slab empty,
// every fallback the whole plane) and one below every temperature (nothing
// safe at all).
func TestScanRowsMatchesVisitFold(t *testing.T) {
	axes := [][]float64{
		lookup.DefaultAxes().Utilization,
		{0.05, 0.06, 0.1, 0.35, 0.36, 0.37, 0.5, 0.9, 0.95},
	}
	for _, uAxis := range axes {
		for _, tsafe := range []units.Celsius{62, 200, -100} {
			c := scanController(t, uAxis)
			c.TSafe = tsafe
			lo, hi := c.TSafe-c.Band, c.TSafe+c.Band
			idx := c.Space.SegmentIndex(lo, hi)
			var buf []lookup.SlabRow
			steps := 64
			if raceEnabled {
				steps = 8
			}
			planes := []float64{0, 1}
			for b := 0; b+1 < len(uAxis); b++ {
				for k := 0; k < steps; k++ {
					planes = append(planes, uAxis[b]+float64(k)/float64(steps)*(uAxis[b+1]-uAxis[b]))
				}
			}
			slabs := 0
			for _, u := range planes {
				for _, cold := range []float64{12, 20, 27.5} {
					rows, w0, w1 := c.Space.SlabRows(idx, u, &buf)
					gn, gp, gc := c.curve.scanRows(rows, w0, w1, float64(lo), float64(hi), cold)
					wn, wp, wc := visitFold(t, c, cold, func(v func(int, lookup.Point) bool) error {
						return c.Space.VisitPlaneIntersection(u, c.TSafe, c.Band, v)
					})
					if gn != wn || math.Float64bits(float64(gp)) != math.Float64bits(float64(wp)) || (wn > 0 && gc != wc) {
						t.Fatalf("axis %v tsafe %v u=%v cold %v: slab kernel (%d, %v, %d) != fold (%d, %v, %d)",
							uAxis, tsafe, u, cold, gn, gp, gc, wn, wp, wc)
					}
					if gn > 0 {
						slabs++
						continue
					}
					rows, w0, w1 = c.Space.PlaneRows(u, &buf)
					gn, gp, gc = c.curve.scanRows(rows, w0, w1, math.Inf(-1), float64(hi), cold)
					wn, wp, wc = visitFold(t, c, cold, func(v func(int, lookup.Point) bool) error {
						return c.Space.VisitPlane(u, func(cell int, p lookup.Point) bool {
							if p.CPUTemp <= hi {
								return v(cell, p)
							}
							return true
						})
					})
					if gn != wn || math.Float64bits(float64(gp)) != math.Float64bits(float64(wp)) || (wn > 0 && gc != wc) {
						t.Fatalf("axis %v tsafe %v u=%v cold %v: fallback kernel (%d, %v, %d) != fold (%d, %v, %d)",
							uAxis, tsafe, u, cold, gn, gp, gc, wn, wp, wc)
					}
				}
			}
			if tsafe == 62 && slabs == 0 {
				t.Errorf("axis %v: the sweep never found a non-empty slab", uAxis)
			}
			if tsafe != 62 && slabs != 0 {
				t.Errorf("axis %v tsafe %v: %d planes found a slab no plane reaches", uAxis, tsafe, slabs)
			}
		}
	}
}

// TestScanRowsPredicateAndTies pins the kernel's row semantics on
// hand-made rows: the band is closed at both ends, a NaN temperature passes
// no band (not even [-Inf, hi]), and among equal powers the first row in
// order wins.
func TestScanRowsPredicateAndTies(t *testing.T) {
	c := newController(t)
	row := func(ct, out float64, cell int32) lookup.SlabRow {
		return lookup.SlabRow{C0: ct, C1: ct, O0: out, O1: out, Cell: cell, FlowIdx: 3}
	}
	rows := []lookup.SlabRow{
		row(60.5, 50, 1),       // below the band
		row(61, 40, 2),         // on the lower edge
		row(math.NaN(), 55, 3), // NaN: never a member
		row(62, 45, 4),         // the best power...
		row(63, 45, 5),         // ...tied on the upper edge: the first wins
		row(63.25, 58, 6),      // above the band
	}
	n, best, cell := c.curve.scanRows(rows, 0.5, 0.5, 61, 63, 20)
	if want := c.curve.powerAt(3*c.curve.ni, 45, 20); n != 3 || best != want || cell != 4 {
		t.Errorf("band [61, 63]: (%d, %v, %d), want (3, %v, 4)", n, best, cell, want)
	}
	n, best, cell = c.curve.scanRows(rows, 0.5, 0.5, math.Inf(-1), 63, 20)
	if want := c.curve.powerAt(3*c.curve.ni, 50, 20); n != 4 || best != want || cell != 1 {
		t.Errorf("band [-Inf, 63]: (%d, %v, %d), want (4, %v, 1)", n, best, cell, want)
	}
	if n, best, _ = c.curve.scanRows(rows[2:3], 0.5, 0.5, math.Inf(-1), math.Inf(1), 20); n != 0 || best != -1 {
		t.Errorf("NaN row alone: (%d, %v), want (0, -1)", n, best)
	}
}

// TestDecideBatchNaNPlaneMatchesSerial pins the one failure the miss scan
// itself reports: a NaN plane passes phase 1's unit-interval check (NaN
// compares false both ways), locates like numeric.Cell and matches no
// band, so it records errNoSafeSetting in uErr, and the first group
// deciding it fails with the referee's exact error while the groups before
// it decide normally.
func TestDecideBatchNaNPlaneMatchesSerial(t *testing.T) {
	for _, quantum := range []float64{0, 1.0 / 512} {
		c := newController(t)
		c.CacheQuantum = quantum
		ref := newController(t)
		ref.CacheQuantum = quantum
		col := []float64{0.3, 0.5, 0.25, math.NaN(), 0.7, math.NaN(), 0.9}
		ranges := []Range{{0, 2}, {2, 4}, {4, 5}, {5, 7}}
		var bs BatchScratch
		scratches := []*Scratch{{}, {}, {}, {}}
		out := make([]Decision, len(ranges))
		err := c.DecideBatchCold(col, ranges, LoadBalance, c.ColdSource, &bs, scratches, out)
		var ge GroupError
		if !errors.As(err, &ge) {
			t.Fatalf("q=%v: batch error %v is not a GroupError", quantum, err)
		}
		failed := -1
		var wantErr error
		for g, r := range ranges {
			want, err := ref.decideSerial(col[r.Lo:r.Hi], LoadBalance, ref.ColdSource)
			if err != nil {
				failed, wantErr = g, err
				break
			}
			if !decisionsEqual(out[g], want) {
				t.Fatalf("q=%v group %d: batch %+v != serial %+v", quantum, g, out[g], want)
			}
		}
		if failed != 1 || ge.Group != failed {
			t.Fatalf("q=%v: batch failed at group %d, serial at %d (want 1)", quantum, ge.Group, failed)
		}
		if ge.Err.Error() != wantErr.Error() || ge.Err.Error() != errNoSafeSetting(math.NaN()).Error() {
			t.Fatalf("q=%v: batch error %q, serial %q, want errNoSafeSetting(NaN)", quantum, ge.Err, wantErr)
		}
		j := bs.gUniq[1]
		if bs.published[j] || bs.uErr[j] == nil || bs.uErr[j].Error() != wantErr.Error() {
			t.Fatalf("q=%v: NaN plane's unique entry published=%v err=%v", quantum, bs.published[j], bs.uErr[j])
		}
		bh, bc := c.CacheStats()
		sh, sc := ref.CacheStats()
		if bh != sh || bc != sc || c.inserts.Value() != ref.inserts.Value() {
			t.Errorf("q=%v: batch counters (%d, %d, %d) != serial (%d, %d, %d)",
				quantum, bh, bc, c.inserts.Value(), sh, sc, ref.inserts.Value())
		}
	}
}

// TestDecideBatchChurnAllocationFree pins the exact-cache steady state at
// zero allocations: against a cache already at capacity every column's
// planes are fresh first misses, so each one runs the fused miss scan and
// only records its fingerprint. With a band no plane reaches, every miss
// also reruns the kernel over the whole plane's packed rows.
func TestDecideBatchChurnAllocationFree(t *testing.T) {
	base, ranges := batchColumn(24, 16, 9)
	for _, tsafe := range []units.Celsius{62, 200} {
		c := newController(t)
		c.TSafe = tsafe
		fillController(t, c)
		col := append([]float64(nil), base...)
		var bs BatchScratch
		scratches := make([]*Scratch, len(ranges))
		for g := range scratches {
			scratches[g] = &Scratch{}
		}
		out := make([]Decision, len(ranges))
		i := 0
		decide := func() {
			i++
			f := 1 - float64(i)/(1<<30)
			for k, u := range base {
				col[k] = u * f
			}
			if err := c.DecideBatchCold(col, ranges, LoadBalance, c.ColdSource, &bs, scratches, out); err != nil {
				t.Fatal(err)
			}
		}
		decide()
		if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
			t.Errorf("tsafe %v: churn DecideBatchCold = %v allocs/op, want 0", tsafe, allocs)
		}
	}
}
