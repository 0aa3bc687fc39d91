package lookup

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

// Len returns the number of located elements.
func (l *BatchLoc) Len() int { return l.n }

func batchSpace(t testing.TB) *Space {
	t.Helper()
	s, err := Build(cpu.XeonE52650V3(), DefaultAxes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// batchColumn generates a deterministic column with grid-node, mid-cell and
// boundary utilizations mixed in, so the blend hits exact 0/1 weights as well
// as interior ones.
func batchColumn(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	us := make([]float64, n)
	for i := range us {
		switch i % 4 {
		case 0:
			us[i] = rng.Float64()
		case 1:
			us[i] = float64(i%21) * 0.05 // grid nodes
		case 2:
			us[i] = 0
		default:
			us[i] = 1
		}
	}
	return us
}

// TestBatchEvalMatchesScalar pins BatchEval bit-for-bit against the scalar
// CPUTemp/OutletTemp calls at every candidate cell's grid-aligned setting —
// the contract the per-server decision kernel relies on.
func TestBatchEvalMatchesScalar(t *testing.T) {
	s := batchSpace(t)
	us := batchColumn(97, 1)
	var loc BatchLoc
	s.LocateColumn(us, &loc)
	cpuT := make([]float64, len(us))
	out := make([]float64, len(us))
	for _, cell := range []int{0, 1, 56, 57, 700, s.Cells() - 1} {
		s.BatchEval(cell, &loc, cpuT, out)
		flow, inlet := s.CellSetting(cell)
		for i, u := range us {
			wantC := float64(s.CPUTemp(u, flow, inlet))
			wantO := float64(s.OutletTemp(u, flow, inlet))
			if cpuT[i] != wantC || out[i] != wantO {
				t.Fatalf("cell %d u=%v: BatchEval = (%v, %v), scalar = (%v, %v)",
					cell, u, cpuT[i], out[i], wantC, wantO)
			}
		}
	}
}

// TestBatchEvalExtrapolates pins the no-validation contract of LocateColumn:
// out-of-range utilizations extrapolate from the boundary cell exactly as
// CPUTemp and OutletTemp do.
func TestBatchEvalExtrapolates(t *testing.T) {
	s := batchSpace(t)
	us := []float64{-0.25, 1.25, 2}
	var loc BatchLoc
	s.LocateColumn(us, &loc)
	cpuT := make([]float64, len(us))
	out := make([]float64, len(us))
	s.BatchEval(3, &loc, cpuT, out)
	flow, inlet := s.CellSetting(3)
	for i, u := range us {
		if want := float64(s.CPUTemp(u, flow, inlet)); cpuT[i] != want {
			t.Errorf("u=%v: BatchEval cpu = %v, Eval = %v", u, cpuT[i], want)
		}
		if want := float64(s.OutletTemp(u, flow, inlet)); out[i] != want {
			t.Errorf("u=%v: BatchEval out = %v, Eval = %v", u, out[i], want)
		}
	}
}

// TestBatchScanTelemetry checks the slab-row helpers record one batch scan
// per call, observing one plane and the rows handed out: the segment's
// candidates for SlabRows, every cell for PlaneRows.
func TestBatchScanTelemetry(t *testing.T) {
	s := batchSpace(t)
	reg := telemetry.New()
	s.AttachTelemetry(reg)
	idx := s.SegmentIndex(61, 63)
	var buf []SlabRow
	slab, _, _, _ := s.SlabRows(idx, 0.63, &buf)
	if _, _, _ = s.PlaneRows(0.63, &buf); len(buf) != s.Cells() {
		t.Fatalf("PlaneRows buffer holds %d rows, want %d", len(buf), s.Cells())
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == metricBatchScans && c.Value == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("batch scan counter not recorded: %+v", snap.Counters)
	}
	for _, h := range snap.Histograms {
		switch h.Name {
		case metricBatchScanPlanes:
			if h.Count != 2 || h.Sum != 2 {
				t.Errorf("planes histogram count=%d sum=%v, want 2/2", h.Count, h.Sum)
			}
		case metricBatchScanCells:
			if want := float64(len(slab) + s.Cells()); h.Count != 2 || h.Sum != want {
				t.Errorf("cells histogram count=%d sum=%v, want 2/%v", h.Count, h.Sum, want)
			}
		}
	}
}

// locateAxes are the utilization axes the locate tests sweep: the default
// uniform axis, and two strictly increasing non-uniform ones that do not
// span [0, 1], so unit planes extrapolate. Nodes bunched early make the
// direct guess undershoot by several nodes; nodes bunched late make it
// overshoot.
func locateAxes() []Axes {
	early, late := DefaultAxes(), DefaultAxes()
	early.Utilization = []float64{0.05, 0.06, 0.1, 0.35, 0.36, 0.37, 0.5, 0.9, 0.95}
	late.Utilization = []float64{0.05, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95}
	return []Axes{DefaultAxes(), early, late}
}

// TestLocateMatchesNumericCell pins the direct-index locate to
// numeric.Cell bit for bit: at every axis node and its Nextafter
// neighbours, at segment midpoints, at 0 and 1, and at NaN, ±Inf and
// out-of-axis values.
func TestLocateMatchesNumericCell(t *testing.T) {
	for _, ax := range locateAxes() {
		s, err := Build(cpu.XeonE52650V3(), ax)
		if err != nil {
			t.Fatal(err)
		}
		tabs := s.tabs
		qs := []float64{0, 1, math.Copysign(0, -1), -0.5, 1.5, -1e300, 1e300,
			math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
		for i, a := range ax.Utilization {
			qs = append(qs, a, math.Nextafter(a, math.Inf(-1)), math.Nextafter(a, math.Inf(1)))
			if i+1 < len(ax.Utilization) {
				qs = append(qs, (a+ax.Utilization[i+1])/2)
			}
		}
		rng := rand.New(rand.NewSource(4))
		for range 1000 {
			qs = append(qs, rng.Float64())
		}
		for _, q := range qs {
			gi, gt := tabs.locate(q)
			wi, wt := numeric.Cell(ax.Utilization, q)
			if gi != wi || math.Float64bits(gt) != math.Float64bits(wt) {
				t.Fatalf("axis %v u=%v: locate = (%d, %v), numeric.Cell = (%d, %v)",
					ax.Utilization, q, gi, gt, wi, wt)
			}
		}
	}
}

// TestSlabRowsMatchVisitPlane pins the packed rows against the trilinear
// look-up: for planes across both locate axes (including planes a custom
// axis extrapolates), every row PlaneRows packs blends, with the returned
// weights, to exactly Space.At's CPU and outlet temperatures at its cell's
// setting, in cell order with the cell's flow index; and SlabRows hands out
// a set of those rows, each cell at most once, that contains every cell
// whose CPU temperature lies in the band — PlaneIntersection's members —
// sorted for exactly the planes inside the axis.
func TestSlabRowsMatchVisitPlane(t *testing.T) {
	const tsafe, band = units.Celsius(62), units.Celsius(1)
	for _, ax := range locateAxes() {
		s, err := Build(cpu.XeonE52650V3(), ax)
		if err != nil {
			t.Fatal(err)
		}
		ni := len(ax.Inlet)
		last := len(ax.Utilization) - 1
		idx := s.SegmentIndex(tsafe-band, tsafe+band)
		var buf, slabBuf []SlabRow
		for k := 0; k <= 400; k++ {
			u := float64(k) / 400
			rows, w0, w1 := s.PlaneRows(u, &buf)
			slab, sw0, sw1, sorted := s.SlabRows(idx, u, &slabBuf)
			if sw0 != w0 || sw1 != w1 {
				t.Fatalf("u=%v: SlabRows weights (%v, %v) != PlaneRows (%v, %v)", u, sw0, sw1, w0, w1)
			}
			if inAxis := u >= ax.Utilization[0] && u <= ax.Utilization[last]; sorted != inAxis {
				t.Fatalf("u=%v: SlabRows sorted = %v for a plane in the axis = %v", u, sorted, inAxis)
			}
			inSlab := make(map[int32]bool, len(slab))
			for _, r := range slab {
				if inSlab[r.Cell] || r != rows[r.Cell] {
					t.Fatalf("u=%v: slab row %+v is a duplicate or differs from the plane's row", u, r)
				}
				inSlab[r.Cell] = true
			}
			for c, r := range rows {
				flow, inlet := s.CellSetting(c)
				p := s.At(u, flow, inlet)
				if int(r.Cell) != c || int(r.FlowIdx) != c/ni ||
					w0*r.C0+w1*r.C1 != float64(p.CPUTemp) || w0*r.O0+w1*r.O1 != float64(p.Outlet) {
					t.Fatalf("u=%v cell %d: row %+v with (%v, %v) != point %+v", u, c, r, w0, w1, p)
				}
				if p.CPUTemp >= tsafe-band && p.CPUTemp <= tsafe+band && !inSlab[r.Cell] {
					t.Fatalf("u=%v: slab member cell %d missing from the slab rows", u, c)
				}
			}
		}
	}
}

// TestSegmentIndexOutletOrder pins the order the early-exit scan relies on:
// within every segment, OutletMax never increases, and rows of equal
// OutletMax run in ascending cell order.
func TestSegmentIndexOutletOrder(t *testing.T) {
	for _, ax := range locateAxes() {
		s, err := Build(cpu.XeonE52650V3(), ax)
		if err != nil {
			t.Fatal(err)
		}
		for _, band := range [][2]units.Celsius{{61, 63}, {50, 80}, {-1000, 1000}} {
			idx := s.SegmentIndex(band[0], band[1])
			for b, seg := range idx.rows {
				for i := 1; i < len(seg); i++ {
					prev, cur := seg[i-1].OutletMax(), seg[i].OutletMax()
					if cur > prev || (cur == prev && seg[i].Cell <= seg[i-1].Cell) {
						t.Fatalf("axis %v band %v segment %d: row %d (cell %d, %v) after (cell %d, %v)",
							ax.Utilization, band, b, i, seg[i].Cell, cur, seg[i-1].Cell, prev)
					}
				}
			}
		}
	}
}

// TestBatchLocReuse checks a BatchLoc shrinks and regrows without losing
// correctness (the engine reuses one per worker across ranges of different
// sizes).
func TestBatchLocReuse(t *testing.T) {
	s := batchSpace(t)
	var loc BatchLoc
	for _, n := range []int{40, 3, 41} {
		us := batchColumn(n, int64(n))
		s.LocateColumn(us, &loc)
		if loc.Len() != n {
			t.Fatalf("Len = %d, want %d", loc.Len(), n)
		}
		cpuT := make([]float64, n)
		out := make([]float64, n)
		s.BatchEval(10, &loc, cpuT, out)
		flow, inlet := s.CellSetting(10)
		for i, u := range us {
			if cpuT[i] != float64(s.CPUTemp(u, flow, inlet)) {
				t.Fatalf("n=%d i=%d: stale location after reuse", n, i)
			}
			_ = out[i]
		}
	}
}

var sinkUnits units.Celsius

// BenchmarkDecisionBatchEval measures the per-server batch blend the
// decision kernel evaluates at a decided cell.
func BenchmarkDecisionBatchEval(b *testing.B) {
	s := batchSpace(b)
	us := batchColumn(10000, 5)
	var loc BatchLoc
	s.LocateColumn(us, &loc)
	cpuT := make([]float64, len(us))
	out := make([]float64, len(us))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocateColumn(us, &loc)
		s.BatchEval(100, &loc, cpuT, out)
	}
	sinkUnits = units.Celsius(cpuT[0])
}

// TestSegmentIndexMemoizedPerBand pins the space's per-band memo: one index
// per band however many callers ask, concurrently or not, identical to a
// fresh build; bands past the memo's bound are still answered, just not kept.
func TestSegmentIndexMemoizedPerBand(t *testing.T) {
	s := batchSpace(t)
	const lo, hi = units.Celsius(61), units.Celsius(63)

	got := make(chan *SegmentIndex, 8)
	for g := 0; g < cap(got); g++ {
		go func() { got <- s.SegmentIndex(lo, hi) }()
	}
	first := <-got
	for g := 1; g < cap(got); g++ {
		if idx := <-got; idx != first {
			t.Fatal("concurrent callers got different indexes for one band")
		}
	}
	if s.SegmentIndex(lo, hi) != first {
		t.Error("a repeated band rebuilt its index")
	}
	if !reflect.DeepEqual(first, s.buildSegmentIndex(lo, hi)) {
		t.Error("memoized index differs from a fresh build")
	}

	other := s.SegmentIndex(lo-1, hi+1)
	if other == first || !other.Matches(lo-1, hi+1) {
		t.Error("a second band must get its own index")
	}
	for k := 0; k < 2*maxSegmentIndexes; k++ {
		b := units.Celsius(k)
		if idx := s.SegmentIndex(lo-b, hi); !idx.Matches(lo-b, hi) {
			t.Fatalf("band %d: index built for another band", k)
		}
	}
	if n := len(s.segIdx); n != maxSegmentIndexes {
		t.Errorf("memo holds %d indexes, want the bound %d", n, maxSegmentIndexes)
	}
	if s.SegmentIndex(lo, hi) != first {
		t.Error("an early band lost its memoized index")
	}
}
