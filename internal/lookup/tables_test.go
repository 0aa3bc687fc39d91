package lookup

import (
	"testing"

	"github.com/h2p-sim/h2p/internal/units"
)

// Cells returns the number of (flow, inlet) candidate cells per plane.
func (s *Space) Cells() int { return s.tabs.cells }

// The candidate tables must reproduce the trilinear look-up bit for bit:
// the decision kernels blend their stencils instead of calling Space.At, so
// the controller's correctness rides on these identities.

// TestVisitPlaneMatchesAt pins the tables' per-cell identity on the default
// axis: PlaneRows packs one row per (flow, inlet) cell, flow-major, each
// carrying its cell and flow-axis index, CellSetting maps the cell to the
// axis coordinates, and the row blends, with the returned weights, to
// exactly Space.At's CPU and outlet temperatures at that setting.
func TestVisitPlaneMatchesAt(t *testing.T) {
	s := buildDefault(t)
	ax := s.Axes()
	ni := len(ax.Inlet)
	if got, want := s.Cells(), len(ax.Flow)*ni; got != want {
		t.Fatalf("Cells() = %d, want %d", got, want)
	}
	var buf []SlabRow
	for _, u := range []float64{0, 0.137, 0.25, 0.5, 0.731, 1} {
		rows, w0, w1 := s.PlaneRows(u, &buf)
		if len(rows) != s.Cells() {
			t.Fatalf("u=%v: %d rows, want %d", u, len(rows), s.Cells())
		}
		for c, r := range rows {
			flow, inlet := s.CellSetting(c)
			if int(r.Cell) != c || int(r.FlowIdx) != c/ni ||
				flow != units.LitersPerHour(ax.Flow[c/ni]) || inlet != units.Celsius(ax.Inlet[c%ni]) {
				t.Fatalf("u=%v cell %d: row %+v, setting (%v, %v)", u, c, r, flow, inlet)
			}
			want := s.At(u, flow, inlet)
			if w0*r.C0+w1*r.C1 != float64(want.CPUTemp) || w0*r.O0+w1*r.O1 != float64(want.Outlet) {
				t.Fatalf("u=%v cell %d: row %+v with (%v, %v) != interpolated %+v", u, c, r, w0, w1, want)
			}
		}
	}
}
