package sched

import (
	"errors"
	"math"
	"math/rand"
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

// sameChoice reports whether two Choose outcomes are bit-identical: the
// setting, the power's bits and the error text.
func sameChoice(s1 Setting, p1 units.Watts, e1 error, s2 Setting, p2 units.Watts, e2 error) bool {
	if (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 != nil {
		return e1.Error() == e2.Error()
	}
	return s1 == s2 && math.Float64bits(float64(p1)) == math.Float64bits(float64(p2))
}

// TestChooseMatchesReference pins Choose's miss path — resolvePlane, the
// fused slab-row kernel — against chooseRef bit for bit: setting, power
// bits and error text. The sweep crosses every utilization segment of the
// default axis and of a custom axis off which the unit planes extrapolate,
// four cold sides, a cache quantum, a band narrow enough that many slabs
// fall between grid cells (the fallback decides under a binding
// TSafe+Band cap), a T_safe no plane reaches (every decision the uncapped
// fallback) and one below every temperature (no safe setting at all). A
// band that is not positive fails Choose and DecideBatchCold with
// lookup.ErrBandNotPositive.
func TestChooseMatchesReference(t *testing.T) {
	type config struct {
		tsafe, band units.Celsius
		quantum     float64
	}
	configs := []config{{62, 1, 0}, {62, 0.02, 0}, {62, 1, 1.0 / 512}, {200, 1, 0}, {-100, 1, 0}}
	axes := [][]float64{
		lookup.DefaultAxes().Utilization,
		{0.05, 0.06, 0.1, 0.35, 0.36, 0.37, 0.5, 0.9, 0.95},
	}
	colds := []units.Celsius{12, 20, 27.5, 35}
	steps := 8
	if raceEnabled {
		steps = 2
	}
	for _, uAxis := range axes {
		planes := []float64{0, 1, math.Nextafter(1, 0)}
		for b := 0; b+1 < len(uAxis); b++ {
			for k := 0; k < steps; k++ {
				planes = append(planes, uAxis[b]+float64(k)/float64(steps)*(uAxis[b+1]-uAxis[b]))
			}
		}
		for _, cfg := range configs {
			c := scanController(t, uAxis)
			c.TSafe, c.Band, c.CacheQuantum = cfg.tsafe, cfg.band, cfg.quantum
			ok, capped := 0, 0
			for k, u := range planes {
				cold := colds[k%len(colds)]
				ws, wp, werr := c.chooseRef(u, cold)
				gs, gp, gerr := c.Choose(u, cold)
				if !sameChoice(gs, gp, gerr, ws, wp, werr) {
					t.Fatalf("axis %v %+v u=%v cold %v: Choose (%+v, %v, %v) != reference (%+v, %v, %v)",
						uAxis, cfg, u, cold, gs, gp, gerr, ws, wp, werr)
				}
				if gerr == nil {
					ok++
					if gt := c.Space.CPUTemp(c.quantizePlane(u), gs.Flow, gs.Inlet); gt < c.TSafe-c.Band {
						capped++ // the slab was empty: the capped fallback chose
					}
				}
			}
			if reachable := cfg.tsafe != -100; (ok == len(planes)) != reachable || (ok == 0) == reachable {
				t.Errorf("axis %v %+v: %d of %d planes found a setting", uAxis, cfg, ok, len(planes))
			}
			if cfg.band < 1 && (capped == 0 || capped == ok) {
				t.Errorf("axis %v %+v: the fallback decided %d of %d planes, want some but not all", uAxis, cfg, capped, ok)
			}
		}
	}

	c := newController(t)
	for _, band := range []units.Celsius{0, -1} {
		c.Band = band
		if _, _, err := c.Choose(0.5, c.ColdSource); !errors.Is(err, lookup.ErrBandNotPositive) {
			t.Errorf("band %v: Choose err %v, want ErrBandNotPositive", band, err)
		}
		var bs BatchScratch
		err := c.DecideBatchCold([]float64{0.4, 0.5}, []Range{{0, 2}}, Original, c.ColdSource, &bs, []*Scratch{{}}, make([]Decision, 1))
		var ge GroupError
		if !errors.As(err, &ge) || ge.Group != 0 || !errors.Is(err, lookup.ErrBandNotPositive) {
			t.Errorf("band %v: DecideBatchCold err %v, want group 0's ErrBandNotPositive", band, err)
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
	// The rows' flow index 3 is the module's flow; the cold side is 20 °C.
	power := func(outlet units.Celsius) units.Watts {
		return c.Module.MaxPower(outlet-20, units.LitersPerHour(c.Space.Axes().Flow[3]))
	}
	n, _, best, cell := c.curve.scanRows(rows, 0.5, 0.5, 61, 63, 20, false)
	if want := power(45); n != 3 || best != want || cell != 4 {
		t.Errorf("band [61, 63]: (%d, %v, %d), want (3, %v, 4)", n, best, cell, want)
	}
	n, _, best, cell = c.curve.scanRows(rows, 0.5, 0.5, math.Inf(-1), 63, 20, false)
	if want := power(50); n != 4 || best != want || cell != 1 {
		t.Errorf("band [-Inf, 63]: (%d, %v, %d), want (4, %v, 1)", n, best, cell, want)
	}
	if n, _, best, _ = c.curve.scanRows(rows[2:3], 0.5, 0.5, math.Inf(-1), math.Inf(1), 20, false); n != 0 || best != -1 {
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
		if bs.uErr[j] == nil || bs.uErr[j].Error() != wantErr.Error() {
			t.Fatalf("q=%v: NaN plane's unique entry err=%v", quantum, bs.uErr[j])
		}
		// The counters see the two groups reached, the NaN one included,
		// and no repeated plane among them.
		bh, bc := c.CacheStats()
		_, sc := ref.CacheStats()
		if bh != 0 || bc != 2 || sc != bc {
			t.Errorf("q=%v: batch counts (hits=%d calls=%d), serial calls %d; want 0 hits of 2 calls", quantum, bh, bc, sc)
		}
	}
}

// TestDecideBatchChurnAllocationFree pins the exact-quantum steady state at
// zero allocations: every column's planes are fresh, so each one runs the
// fused scan. With a band no plane reaches, every plane also reruns the
// kernel over the whole plane's packed rows, which the batch scratch
// holds.
func TestDecideBatchChurnAllocationFree(t *testing.T) {
	base, ranges := batchColumn(24, 16, 9)
	for _, tsafe := range []units.Celsius{62, 200} {
		c := newController(t)
		c.TSafe = tsafe
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

// TestScanBoundDominates pins the early exit's soundness: the watts the
// kernel computes for a row never exceed bound at the row's OutletMax, over
// random rows, blend weights (the plane ends included), cold sides and
// fits — the default curve with its derating, and fits of every sign with
// factors above 1, including fits whose vertex lies inside the range.
func TestScanBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	curves := []*powerCurve{newController(t).curve}
	for range 40 {
		sign := func() float64 { return float64(rng.Intn(3) - 1) }
		pc := &powerCurve{
			n:       float64(1 + rng.Intn(24)),
			fit:     [3]float64{sign() * rng.Float64(), sign() * rng.Float64() * 0.1, sign() * rng.Float64() * 0.01},
			factors: []float64{rng.Float64() * 3, rng.Float64(), 1},
		}
		for _, fc := range pc.factors {
			pc.fmax = max(pc.fmax, math.Abs(fc))
		}
		curves = append(curves, pc)
	}
	trials := 20000
	if raceEnabled {
		trials = 2000
	}
	for ci, pc := range curves {
		for range trials {
			r := lookup.SlabRow{O0: 20 + rng.Float64()*60, O1: 20 + rng.Float64()*60, FlowIdx: int32(rng.Intn(len(pc.factors)))}
			if rng.Intn(4) == 0 {
				r.O1 = r.O0 // equal samples: the blend rounds around one value
			}
			tx := rng.Float64()
			switch rng.Intn(8) {
			case 0:
				tx = 0
			case 1:
				tx = 1
			}
			cold := rng.Float64() * 80
			n, _, pw, _ := pc.scanRows([]lookup.SlabRow{r}, 1-tx, tx, math.Inf(-1), math.Inf(1), cold, false)
			if b := pc.bound(r.OutletMax(), cold); n != 1 || float64(pw) > b {
				t.Fatalf("curve %d %+v: row %+v tx %v cold %v: power %v above bound %v", ci, pc, r, tx, cold, pw, b)
			}
		}
	}
}

// TestMissScanVisitsFewRows guards the early exit against silently turning
// back into a full scan: over 10k planes of the default axes at a 20 °C
// cold side, the miss scan visits at most 8 rows per plane on average
// (about 4.5 today, of the ~104 its segment hands out).
func TestMissScanVisitsFewRows(t *testing.T) {
	c := newController(t)
	idx := c.Space.SegmentIndex(c.TSafe-c.Band, c.TSafe+c.Band)
	var buf []lookup.SlabRow
	const planes = 10000
	visited := 0
	for k := range planes {
		_, _, _, v, err := c.resolvePlane(idx, (float64(k)+0.5)/planes, 20, &buf)
		if err != nil {
			t.Fatal(err)
		}
		visited += v
	}
	if mean := float64(visited) / planes; mean > 8 {
		t.Errorf("miss scan visits %.2f rows per plane, want at most 8", mean)
	}
}
