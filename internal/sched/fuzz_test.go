package sched

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/units"
)

// fuzzSpace memoizes the fitted look-up space and module for the fuzzers:
// both are immutable after construction, so parallel fuzz workers share them
// and build only their own (cheap) controllers per input.
var fuzzSpace = sync.OnceValues(func() (*lookup.Space, *teg.Module) {
	space, err := lookup.Build(cpu.XeonE52650V3(), lookup.DefaultAxes())
	if err != nil {
		panic(err)
	}
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		panic(err)
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	return space, mod
})

// fuzzColumn decodes raw fuzz bytes into a utilization column: most bytes map
// into [0, 1], with reserved values injecting the hostile cases the decision
// path must validate (NaN, above-unit, below-zero). degrade halves a
// deterministic subset of servers, modeling a column observed under partial
// fault degradation.
func fuzzColumn(data []byte, degrade byte) []float64 {
	us := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 0xFF:
			us[i] = math.NaN()
		case 0xFE:
			us[i] = 1.5
		case 0xFD:
			us[i] = -0.25
		default:
			us[i] = float64(b) / 252
		}
		if degrade > 0 && (i*31+int(degrade))%7 == 0 {
			us[i] *= 0.5
		}
	}
	return us
}

// FuzzDecideBatchEquivalence is the batch kernels' bit-equality fuzzer: for
// arbitrary columns (including NaN and out-of-unit utilizations), group
// shapes (including empty groups), cache quanta, schemes, fault-degraded
// servers and TEG cold sides, DecideBatchCold must reproduce the looped
// scalar referee (decideSerial per group) exactly: same decisions bit for
// bit, or the same first failing group with the same error text — and each
// group's Steps 1-3 outcome must be chooseRef's. Decide, the
// single-group adapter, must match group-wise, and a second batch round over
// the now-warm cache must match as well. The cold side is clamped to the
// range a facility environment can produce, so the fuzzer is the scalar
// contract for the engine's per-interval cold side.
func FuzzDecideBatchEquivalence(f *testing.F) {
	f.Add([]byte{10, 20, 250, 40, 50, 60, 70, 80}, 0.0, byte(2), false, byte(0), 20.0)
	f.Add([]byte{0, 252, 126, 126, 3, 200}, 1.0/512, byte(3), true, byte(5), 20.0)
	f.Add([]byte{0xFF, 100, 0xFE, 30, 0xFD, 90}, 0.0, byte(1), false, byte(0), 20.0)
	f.Add([]byte{42}, 0.25, byte(8), true, byte(1), 20.0)
	f.Add([]byte{}, 0.0, byte(1), false, byte(0), 20.0)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 0.001953125, byte(5), false, byte(9), 20.0)
	f.Add([]byte{10, 20, 250, 40, 50, 60, 70, 80}, 0.0, byte(3), true, byte(0), 8.0)
	f.Add([]byte{0, 252, 126, 126, 3, 200, 90, 17}, 1.0/512, byte(2), false, byte(4), 20.0)
	f.Add([]byte{200, 150, 100, 50, 25, 12}, 0.0, byte(2), true, byte(3), 35.0)
	f.Fuzz(func(t *testing.T, data []byte, quantum float64, nGroups byte, lb bool, degrade byte, coldC float64) {
		space, mod := fuzzSpace()
		serialCtl, err := NewController(space, mod, 20)
		if err != nil {
			t.Fatal(err)
		}
		batchCtl, err := NewController(space, mod, 20)
		if err != nil {
			t.Fatal(err)
		}
		q := math.Abs(quantum)
		if !(q < 1) { // rejects NaN and huge quanta in one comparison
			q = 0
		}
		serialCtl.CacheQuantum = q
		batchCtl.CacheQuantum = q
		scheme := Original
		if lb {
			scheme = LoadBalance
		}
		// Clamp the cold side into [0, 40] °C; NaN maps to the default.
		cold := units.Celsius(20)
		if !math.IsNaN(coldC) {
			cold = units.Celsius(math.Min(40, math.Max(0, coldC)))
		}

		col := fuzzColumn(data, degrade)
		groups := int(nGroups%8) + 1
		ranges := make([]Range, groups)
		for g := range ranges {
			ranges[g] = Range{Lo: g * len(col) / groups, Hi: (g + 1) * len(col) / groups}
		}

		// Scalar referee per group, stopping at the first error exactly as
		// a per-circulation loop would.
		refs := make([]refDecision, 0, groups)
		var refErr error
		refGroup := -1
		for g, r := range ranges {
			d, err := serialCtl.decideSerial(col[r.Lo:r.Hi], scheme, cold)
			if err != nil {
				refErr, refGroup = err, g
				break
			}
			refs = append(refs, refDecision{
				d:   d,
				pw:  append([]units.Watts(nil), d.PerServerPower...),
				cpw: append([]units.Watts(nil), d.PerServerCPUPower...),
			})
		}

		// Each group's Steps 1-3 outcome — every decided group's, and the
		// failing group's error once its plane is drawn — must be
		// chooseRef's, bit for bit.
		for g, r := range ranges {
			if g > len(refs) {
				break
			}
			planeU, err := PlaneUtilization(col[r.Lo:r.Hi], scheme)
			if err != nil {
				continue
			}
			ws, wp, werr := serialCtl.chooseRef(planeU, cold)
			gs, gp, gerr := serialCtl.Choose(planeU, cold)
			if !sameChoice(gs, gp, gerr, ws, wp, werr) {
				t.Fatalf("group %d u=%v: Choose (%+v, %v, %v) != reference (%+v, %v, %v)", g, planeU, gs, gp, gerr, ws, wp, werr)
			}
			if g < len(refs) && gs != refs[g].d.Setting {
				t.Fatalf("group %d: reference setting %+v, decided %+v", g, ws, refs[g].d.Setting)
			}
		}

		// Decide must match the referee group-wise (the adapter path).
		for g, r := range ranges {
			if g > len(refs) {
				break
			}
			d, err := batchCtl.Decide(col[r.Lo:r.Hi], scheme, cold, &Scratch{})
			if g == len(refs) {
				if err == nil || refErr == nil || err.Error() != refErr.Error() {
					t.Fatalf("group %d: Decide err %v, referee err %v", g, err, refErr)
				}
				break
			}
			if err != nil {
				t.Fatalf("group %d: Decide err %v, referee succeeded", g, err)
			}
			requireDecisionsMatch(t, "Decide", g, refs[g], d)
		}

		// Two batch rounds: cold cache, then warm (hits and dedup paths).
		for round := 0; round < 2; round++ {
			bs := &BatchScratch{}
			scratches := make([]*Scratch, groups)
			for g := range scratches {
				scratches[g] = &Scratch{}
			}
			out := make([]Decision, groups)
			err := batchCtl.DecideBatchCold(col, ranges, scheme, cold, bs, scratches, out)
			if refErr != nil {
				var ge GroupError
				if err == nil || !errors.As(err, &ge) {
					t.Fatalf("round %d: DecideBatchCold err %v, want GroupError for group %d (%v)", round, err, refGroup, refErr)
				}
				if ge.Group != refGroup || ge.Err.Error() != refErr.Error() {
					t.Fatalf("round %d: DecideBatchCold failed group %d (%v), referee failed group %d (%v)",
						round, ge.Group, ge.Err, refGroup, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d: DecideBatchCold err %v, referee succeeded", round, err)
			}
			for g := range refs {
				requireDecisionsMatch(t, "DecideBatchCold", g, refs[g], out[g])
			}
		}
	})
}

// refDecision is a scalar-reference decision with its per-server slices
// cloned out of the (reused) scratch.
type refDecision struct {
	d   Decision
	pw  []units.Watts
	cpw []units.Watts
}

// requireDecisionsMatch asserts bit-identity between a scalar reference
// decision and a batch-path decision for one group.
func requireDecisionsMatch(t *testing.T, path string, g int, r refDecision, got Decision) {
	t.Helper()
	if got.Scheme != r.d.Scheme || got.Setting != r.d.Setting ||
		math.Float64bits(got.PlaneU) != math.Float64bits(r.d.PlaneU) ||
		math.Float64bits(float64(got.MaxCPUTemp)) != math.Float64bits(float64(r.d.MaxCPUTemp)) ||
		math.Float64bits(float64(got.PlaneOutlet)) != math.Float64bits(float64(r.d.PlaneOutlet)) {
		t.Fatalf("%s group %d: header differs: got %+v want %+v", path, g, got, r.d)
	}
	if len(got.PerServerPower) != len(r.pw) {
		t.Fatalf("%s group %d: %d per-server powers, want %d", path, g, len(got.PerServerPower), len(r.pw))
	}
	for i := range r.pw {
		if math.Float64bits(float64(got.PerServerPower[i])) != math.Float64bits(float64(r.pw[i])) {
			t.Fatalf("%s group %d server %d: power %v != %v", path, g, i, got.PerServerPower[i], r.pw[i])
		}
		if math.Float64bits(float64(got.PerServerCPUPower[i])) != math.Float64bits(float64(r.cpw[i])) {
			t.Fatalf("%s group %d server %d: cpu power %v != %v", path, g, i, got.PerServerCPUPower[i], r.cpw[i])
		}
	}
}

// fuzzScanOutlet maps a fuzz byte to an outlet sample: a coarse grid of
// temperatures, so rows often share outlets and tie on power, with
// reserved values for NaN, ±Inf and a sample whose square overflows.
func fuzzScanOutlet(b byte) float64 {
	switch b {
	case 0xFF:
		return math.NaN()
	case 0xFE:
		return math.Inf(1)
	case 0xFD:
		return math.Inf(-1)
	case 0xFC:
		return 1e200
	}
	return 30 + float64(b%48)/2
}

// fuzzScanRows decodes four bytes per row (CPU samples, two outlet samples,
// flow index and duplicate flag) into at most 32 slab rows. Cells are a
// permutation of the row positions, so cell order is not data order; a row
// with the duplicate flag copies an earlier row whole, cell included.
func fuzzScanRows(data []byte) []lookup.SlabRow {
	rows := make([]lookup.SlabRow, 0, min(len(data)/4, 32))
	for i := 0; i+3 < len(data) && len(rows) < 32; i += 4 {
		k := len(rows)
		if meta := data[i+3]; meta&0x80 != 0 && k > 0 {
			rows = append(rows, rows[int(meta&0x7F)%k])
			continue
		}
		c0, c1 := 55+float64(data[i]&15), 55+float64(data[i]>>4)
		if data[i] == 0xFF {
			c0 = math.NaN()
		}
		rows = append(rows, lookup.SlabRow{
			C0: c0, C1: c1,
			O0: fuzzScanOutlet(data[i+1]), O1: fuzzScanOutlet(data[i+2]),
			Cell: int32(k * 13 % 37), FlowIdx: int32(data[i+3] & 3),
		})
	}
	return rows
}

// FuzzScanRows is the miss-scan kernel's exactness fuzzer: for arbitrary
// rows (duplicate rows, tied powers, equal outlets, NaN and infinite
// samples), bands, blend weights, cold sides (above every outlet, NaN,
// ±Inf), derating factors (above 1, zero, negative) and Eq. 6 fits of any
// signs, scanRows must reproduce scanRowsRef — the cell-order loop without
// an early exit. On rows sorted as the segment index sorts them, with
// weights (1-tx, tx) and tx in [0, 1], the early-exit scan must agree on
// whether any row passed, the best power's bits and the best cell. On the
// rows in data order, at any weights, the scan to the end must agree on the
// member count too.
func FuzzScanRows(f *testing.F) {
	rows := []byte{
		0x77, 40, 44, 0, 0x78, 44, 40, 1, 0x87, 44, 44, 2, 0x66, 50, 20, 3,
		0x99, 10, 12, 0, 0x76, 40, 44, 0x81, 0x77, 46, 46, 1, 0x88, 46, 46, 2,
	}
	special := []byte{0x77, 0xFF, 40, 0, 0x77, 0xFE, 40, 1, 0xFF, 40, 40, 2, 0x77, 0xFC, 0xFD, 3, 0x77, 40, 40, 0x80}
	f.Add(rows, 0.3, 61.0, 63.0, 20.0, 0.0011, -0.0003, 0.0003, 0.8, 1.3, uint8(12))
	f.Add(rows, 0.0, 61.0, 63.0, 20.0, 0.0011, -0.0003, 0.0003, 0.8, 1.3, uint8(12))
	f.Add(rows, 1.0, math.Inf(-1), 63.0, 45.0, 0.0011, -0.0003, 0.0003, 3.0, 0.5, uint8(12))
	f.Add(rows, 0.5, 0.0, 100.0, 200.0, 0.0011, -0.0003, 0.0003, 1.0, 1.0, uint8(1))
	f.Add(rows, 0.25, 0.0, 100.0, math.NaN(), 0.0011, -0.0003, 0.0003, 1.0, 1.0, uint8(1))
	f.Add(rows, 0.25, 0.0, 100.0, math.Inf(1), 0.0011, -0.0003, 0.0003, 1.0, 1.0, uint8(1))
	f.Add(rows, 0.25, 0.0, 100.0, math.Inf(-1), 0.0011, -0.0003, 0.0003, 1.0, 1.0, uint8(1))
	f.Add(rows, 0.7, 60.0, 70.0, 20.0, 0.5, 0.02, -0.001, 1.2, 0.9, uint8(12))
	f.Add(rows, 0.7, 60.0, 70.0, 20.0, -0.5, -0.02, -0.001, 1.2, -0.9, uint8(3))
	f.Add(rows, 1.5, 60.0, 70.0, 20.0, 0.0011, -0.0003, 0.0003, 1.0, 1.0, uint8(12))
	f.Add(special, 0.5, math.Inf(-1), math.Inf(1), 20.0, 0.0011, -0.0003, 0.0003, 0.0, 2.0, uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, tx, lo, hi, cold, f0, f1, f2, fa, fb float64, n uint8) {
		pc := &powerCurve{n: float64(n), fit: [3]float64{f0, f1, f2}, factors: []float64{1, fa, fb, 0}}
		for _, fc := range pc.factors {
			pc.fmax = max(pc.fmax, math.Abs(fc))
		}
		rows := fuzzScanRows(data)
		byCell := slices.Clone(rows)
		slices.SortStableFunc(byCell, func(a, b lookup.SlabRow) int { return cmp.Compare(a.Cell, b.Cell) })

		wn, wp, wc := pc.scanRowsRef(byCell, 1-tx, tx, lo, hi, cold)
		gn, gv, gp, gc := pc.scanRows(rows, 1-tx, tx, lo, hi, cold, false)
		if gn != wn || gv != len(rows) || math.Float64bits(float64(gp)) != math.Float64bits(float64(wp)) || gc != wc {
			t.Fatalf("unsorted scan (n %d, visited %d, %v, cell %d) != reference (n %d, %v, cell %d)", gn, gv, gp, gc, wn, wp, wc)
		}

		if !(tx >= 0 && tx <= 1) {
			tx = math.Abs(math.Mod(tx, 1)) // NaN stays NaN: a NaN plane's weights
		}
		sorted := slices.Clone(byCell)
		slices.SortStableFunc(sorted, func(a, b lookup.SlabRow) int { return cmp.Compare(b.OutletMax(), a.OutletMax()) })
		wn, wp, wc = pc.scanRowsRef(byCell, 1-tx, tx, lo, hi, cold)
		gn, gv, gp, gc = pc.scanRows(sorted, 1-tx, tx, lo, hi, cold, true)
		if (gn == 0) != (wn == 0) || gv > len(rows) || math.Float64bits(float64(gp)) != math.Float64bits(float64(wp)) || gc != wc {
			t.Fatalf("tx %v: early-exit scan (n %d, visited %d, %v, cell %d) != reference (n %d, %v, cell %d)",
				tx, gn, gv, gp, gc, wn, wp, wc)
		}
	})
}
