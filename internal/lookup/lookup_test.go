package lookup

import (
	"errors"
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/units"
)

func buildDefault(t *testing.T) *Space {
	t.Helper()
	s, err := Build(cpu.XeonE52650V3(), DefaultAxes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	bad := cpu.XeonE52650V3()
	bad.MaxOperatingTemp = 0
	if _, err := Build(bad, DefaultAxes()); err == nil {
		t.Error("invalid spec should error")
	}
	ax := DefaultAxes()
	ax.Flow = []float64{20}
	if _, err := Build(cpu.XeonE52650V3(), ax); err == nil {
		t.Error("short axis should error")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ax := DefaultAxes()
		ax.Utilization[3] = v
		if _, err := Build(cpu.XeonE52650V3(), ax); err == nil {
			t.Errorf("utilization node %v should error", v)
		}
		ax = DefaultAxes()
		ax.Inlet[len(ax.Inlet)-1] = v
		if _, err := Build(cpu.XeonE52650V3(), ax); err == nil {
			t.Errorf("last inlet node %v should error", v)
		}
	}
}

func TestSpaceMatchesModelAtGridNodes(t *testing.T) {
	s := buildDefault(t)
	spec := s.Spec()
	ax := s.Axes()
	for _, u := range []float64{ax.Utilization[0], ax.Utilization[10], ax.Utilization[20]} {
		for _, f := range []float64{ax.Flow[0], ax.Flow[12], ax.Flow[23]} {
			for _, tin := range []float64{ax.Inlet[0], ax.Inlet[13], ax.Inlet[25]} {
				want := spec.Temperature(u, units.LitersPerHour(f), units.Celsius(tin))
				got := s.CPUTemp(u, units.LitersPerHour(f), units.Celsius(tin))
				if math.Abs(float64(got-want)) > 1e-9 {
					t.Errorf("node (%v,%v,%v): %v vs %v", u, f, tin, got, want)
				}
			}
		}
	}
}

func TestFitErrorSmall(t *testing.T) {
	// The underlying maps are smooth; the trilinear fit over the default
	// grid should track the model to a fraction of a degree.
	s := buildDefault(t)
	if e := s.FitError(9); e > 0.75 {
		t.Errorf("fit error = %v, want < 0.75°C", e)
	}
}

func TestGridPointsCount(t *testing.T) {
	s := buildDefault(t)
	ax := s.Axes()
	want := len(ax.Utilization) * len(ax.Flow) * len(ax.Inlet)
	if got := len(s.GridPoints()); got != want {
		t.Errorf("grid points = %d, want %d", got, want)
	}
	if want != 21*24*57 {
		t.Errorf("default axes shape changed: %d points", want)
	}
}

func TestPlaneIntersection(t *testing.T) {
	s := buildDefault(t)
	cands, err := s.PlaneIntersection(0.25, 62, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates on the u=0.25 plane")
	}
	for _, p := range cands {
		if p.Utilization != 0.25 {
			t.Fatalf("candidate off plane: %v", p.Utilization)
		}
		if p.CPUTemp < 61 || p.CPUTemp > 63 {
			t.Fatalf("candidate outside band: %v", p.CPUTemp)
		}
	}
	if _, err := s.PlaneIntersection(1.5, 62, 1); err == nil {
		t.Error("out-of-range utilization should error")
	}
	for _, band := range []units.Celsius{0, -1} {
		if _, err := s.PlaneIntersection(0.5, 62, band); !errors.Is(err, ErrBandNotPositive) {
			t.Errorf("band %v: err %v, want ErrBandNotPositive", band, err)
		}
	}
	// With a safety target far below anything reachable the intersection
	// is empty, which is not an error.
	if cands, err := s.PlaneIntersection(1.0, 20, 0.5); err != nil || len(cands) != 0 {
		t.Errorf("unreachable safety target: %d candidates, err %v; want none", len(cands), err)
	}
}

// warmestInlet returns the candidate of the u plane's safety-slab
// intersection (T_safe 62 °C ± 1 °C) with the warmest inlet: how much
// headroom the plane offers.
func warmestInlet(t *testing.T, s *Space, u float64) Point {
	t.Helper()
	cands, err := s.PlaneIntersection(u, 62, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatalf("no safe cooling setting on plane u=%v", u)
	}
	best := cands[0]
	for _, p := range cands[1:] {
		if p.Inlet > best.Inlet {
			best = p
		}
	}
	return best
}

func TestAvgPlaneAdmitsWarmerInletThanMaxPlane(t *testing.T) {
	// Fig. 13: the inlet temperatures in A_avg are generally higher than
	// in A_max. Use representative U_max = 0.6, U_avg = 0.25.
	s := buildDefault(t)
	maxPt := warmestInlet(t, s, 0.6)
	avgPt := warmestInlet(t, s, 0.25)
	if avgPt.Inlet <= maxPt.Inlet {
		t.Errorf("A_avg warmest inlet %v should exceed A_max %v", avgPt.Inlet, maxPt.Inlet)
	}
	// Both must admit an outlet warm enough for meaningful generation
	// against a 20 °C cold source.
	if avgPt.Outlet < 45 {
		t.Errorf("A_avg best outlet = %v, expected warm water", avgPt.Outlet)
	}
}

func TestHigherUtilizationNeedsColderInlet(t *testing.T) {
	// The Fig. 14 explanation: high utilization forces a low inlet
	// temperature, hence low TEG power.
	s := buildDefault(t)
	warm := warmestInlet(t, s, 0.1)
	hot := warmestInlet(t, s, 0.95)
	if hot.Inlet >= warm.Inlet {
		t.Errorf("u=0.95 inlet %v should be colder than u=0.1 inlet %v", hot.Inlet, warm.Inlet)
	}
}

func TestOutletAboveInletEverywhere(t *testing.T) {
	s := buildDefault(t)
	for _, p := range s.GridPoints() {
		if p.Outlet < p.Inlet {
			t.Fatalf("outlet %v below inlet %v at %+v", p.Outlet, p.Inlet, p)
		}
	}
}
