package lookup

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

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
// Grid3D.Eval does.
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

// TestBatchVisitPlaneMatchesVisitPlane folds the batch scan back into
// per-plane sequences and checks every (plane, cell) temperature pair against
// the scalar visitor, across a column wide enough to span multiple blocks.
func TestBatchVisitPlaneMatchesVisitPlane(t *testing.T) {
	s := batchSpace(t)
	for _, n := range []int{1, 7, batchBlockPlanes, batchBlockPlanes + 1, 3*batchBlockPlanes + 5} {
		us := batchColumn(n, int64(n))
		for i := range us { // BatchVisitPlane validates [0, 1]
			us[i] = math.Min(1, math.Max(0, us[i]))
		}
		type pair struct{ cpu, out float64 }
		got := make([][]pair, n)
		for p := range got {
			got[p] = make([]pair, 0, s.Cells())
		}
		var loc BatchLoc
		err := s.BatchVisitPlane(us, &loc, func(cell, lo int, cpuT, out []float64) bool {
			for k := range cpuT {
				got[lo+k] = append(got[lo+k], pair{cpuT[k], out[k]})
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for p, u := range us {
			cell := 0
			err := s.VisitPlane(u, func(c int, pt Point) bool {
				g := got[p][cell]
				if c != cell || g.cpu != float64(pt.CPUTemp) || g.out != float64(pt.Outlet) {
					t.Fatalf("n=%d plane %d cell %d: batch = %+v, scalar = (%v, %v)",
						n, p, c, g, pt.CPUTemp, pt.Outlet)
				}
				cell++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if cell != len(got[p]) {
				t.Fatalf("n=%d plane %d: batch visited %d cells, scalar %d", n, p, len(got[p]), cell)
			}
		}
	}
}

// TestBatchVisitPlaneValidates matches VisitPlane's [0, 1] contract.
func TestBatchVisitPlaneValidates(t *testing.T) {
	s := batchSpace(t)
	var loc BatchLoc
	// NaN is deliberately absent: it fails neither bound, exactly as in the
	// scalar VisitPlane (the controller's own validation sits above both).
	for _, us := range [][]float64{{-0.1}, {0.5, 1.5}} {
		err := s.BatchVisitPlane(us, &loc, func(int, int, []float64, []float64) bool { return true })
		if err == nil {
			t.Errorf("BatchVisitPlane(%v) accepted an out-of-range plane", us)
		}
	}
}

// TestBatchVisitPlaneEarlyStop checks that a false visitor return stops the
// scan immediately.
func TestBatchVisitPlaneEarlyStop(t *testing.T) {
	s := batchSpace(t)
	var loc BatchLoc
	calls := 0
	err := s.BatchVisitPlane([]float64{0.5}, &loc, func(cell, lo int, _, _ []float64) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("visitor called %d times after stop at 3", calls)
	}
}

// TestBatchScanTelemetry checks the batch scan instruments record planes and
// blocked cells.
func TestBatchScanTelemetry(t *testing.T) {
	s := batchSpace(t)
	reg := telemetry.New()
	s.AttachTelemetry(reg)
	var loc BatchLoc
	us := batchColumn(batchBlockPlanes+3, 9)
	for i := range us {
		us[i] = math.Min(1, math.Max(0, us[i]))
	}
	if err := s.BatchVisitPlane(us, &loc, func(int, int, []float64, []float64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == metricBatchScans && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("batch scan counter not recorded: %+v", snap.Counters)
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

// BenchmarkDecisionBatchEval measures the per-server batch blend against the
// scalar trilinear path it replaces (BenchmarkDecisionPlaneScan covers the
// candidate scan).
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
