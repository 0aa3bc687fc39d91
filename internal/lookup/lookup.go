// Package lookup implements the 3-D measurement space of Sec. V-B: the
// discrete measurement points (utilization, flow rate, inlet temperature) ->
// (CPU temperature, outlet temperature) of Fig. 12, fitted into a continuous
// space that "can function as a look-up space in practical use".
//
// The cooling controller queries it in three steps (Fig. 13): draw the
// utilization plane U, intersect it with the safety slab X of points whose
// CPU temperature lies within a band around T_safe, and then pick the
// candidate cooling setting {flow, inlet temperature} that maximizes TEG
// output power.
package lookup

import (
	"errors"
	"fmt"
	"sync"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/numeric"
	"github.com/h2p-sim/h2p/internal/units"
)

// Axes defines the sampling grid of the measurement campaign.
type Axes struct {
	// Utilization axis points in [0, 1].
	Utilization []float64
	// Flow axis points in L/H.
	Flow []float64
	// Inlet temperature axis points in °C.
	Inlet []float64
}

// DefaultAxes returns the grid used by the reproduction: utilization at 5 %
// steps, flow from the prototype's 20 L/H up to the 250 L/H saturation point,
// and inlet water from 30 °C up to 58 °C. The ceiling sits above every
// safety-constrained operating point, so the chosen inlet always comes from
// the CPU safety slab rather than the grid edge — which reproduces the
// paper's Fig. 14 anticorrelation between utilization and harvested power.
func DefaultAxes() Axes {
	return Axes{
		Utilization: numeric.Linspace(0, 1, 21),
		Flow:        numeric.Linspace(20, 250, 24),
		Inlet:       numeric.Linspace(30, 58, 57),
	}
}

// Validate checks the axes are usable for grid construction.
func (a Axes) Validate() error {
	if len(a.Utilization) < 2 || len(a.Flow) < 2 || len(a.Inlet) < 2 {
		return errors.New("lookup: each axis needs at least 2 points")
	}
	return nil
}

// Point is one sampled (or interpolated) operating point of the space.
type Point struct {
	Utilization float64
	Flow        units.LitersPerHour
	Inlet       units.Celsius
	CPUTemp     units.Celsius
	Outlet      units.Celsius
}

// Space is the continuous look-up space fitted over the measurement grid.
//
// A Space is immutable after Build: every method only reads the fitted
// grids, so a single Space may safely back any number of concurrent
// readers (the parallel engine shares one Space across all circulation
// workers, and core.Fleet shares one across whole engines). The fields are
// unexported precisely so no caller can mutate the grids after fitting.
type Space struct {
	axes Axes
	spec cpu.Spec
	tcpu *numeric.Grid3D
	tout *numeric.Grid3D
	// tabs is the flattened cell-major view of the same samples, built once
	// for the decision hot path's kernels (tables.go, batch.go).
	tabs *candTables
	// met holds the optional miss-scan metrics (telemetry.go). An atomic
	// pointer rather than a plain field: the space itself stays immutable
	// and shareable while AttachTelemetry publishes the instruments.
	met spaceMetricsPtr
	// segIdx memoizes SegmentIndex per band (batch.go), guarded by segMu.
	segMu  sync.Mutex
	segIdx []*SegmentIndex
}

// ErrBandNotPositive is the error of a Steps 1-3 query whose safety band
// half-width is not positive: PlaneIntersection returns it, and so do the
// controller's Choose and DecideBatchCold.
var ErrBandNotPositive = errors.New("lookup: safety band must be positive")

// Build samples the CPU model over the grid — standing in for the prototype
// measurement campaign — and fits the continuous space by trilinear
// interpolation. The returned Space is never written to again and is safe
// for concurrent use.
func Build(spec cpu.Spec, axes Axes) (*Space, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	tcpu, err := numeric.NewGrid3D(axes.Utilization, axes.Flow, axes.Inlet)
	if err != nil {
		return nil, err
	}
	tout, err := numeric.NewGrid3D(axes.Utilization, axes.Flow, axes.Inlet)
	if err != nil {
		return nil, err
	}
	tcpu.Fill(func(u, f, tin float64) float64 {
		return float64(spec.Temperature(u, units.LitersPerHour(f), units.Celsius(tin)))
	})
	tout.Fill(func(u, f, tin float64) float64 {
		return float64(spec.OutletTemp(u, units.LitersPerHour(f), units.Celsius(tin)))
	})
	return &Space{
		axes: axes,
		spec: spec,
		tcpu: tcpu,
		tout: tout,
		tabs: buildCandTables(axes, tcpu, tout),
	}, nil
}

// Spec returns the CPU spec the space was measured on.
func (s *Space) Spec() cpu.Spec { return s.spec }

// Axes returns the sampling grid.
func (s *Space) Axes() Axes { return s.axes }

// CPUTemp interpolates the die temperature at an arbitrary operating point.
func (s *Space) CPUTemp(u float64, f units.LitersPerHour, tin units.Celsius) units.Celsius {
	return units.Celsius(s.tcpu.Eval(u, float64(f), float64(tin)))
}

// OutletTemp interpolates the coolant outlet temperature at an arbitrary
// operating point.
func (s *Space) OutletTemp(u float64, f units.LitersPerHour, tin units.Celsius) units.Celsius {
	return units.Celsius(s.tout.Eval(u, float64(f), float64(tin)))
}

// At returns the full interpolated Point at an operating point.
func (s *Space) At(u float64, f units.LitersPerHour, tin units.Celsius) Point {
	return Point{
		Utilization: u,
		Flow:        f,
		Inlet:       tin,
		CPUTemp:     s.CPUTemp(u, f, tin),
		Outlet:      s.OutletTemp(u, f, tin),
	}
}

// GridPoints enumerates every sampled grid point — the discrete point cloud
// plotted in Fig. 12.
func (s *Space) GridPoints() []Point {
	out := make([]Point, 0, len(s.axes.Utilization)*len(s.axes.Flow)*len(s.axes.Inlet))
	for _, u := range s.axes.Utilization {
		for _, f := range s.axes.Flow {
			for _, tin := range s.axes.Inlet {
				out = append(out, s.At(u, units.LitersPerHour(f), units.Celsius(tin)))
			}
		}
	}
	return out
}

// PlaneIntersection returns candidate cooling settings on the utilization
// plane u that keep the CPU inside the safety band: the region A of Step 3
// (Fig. 13). For every (flow, inlet) grid cell, in flow-major order, it
// solves the interpolated space at the exact plane, so candidates are
// continuous in u rather than snapped to the utilization axis. The
// controller's miss scan (SlabRows) selects the same cells.
func (s *Space) PlaneIntersection(u float64, tsafe, band units.Celsius) ([]Point, error) {
	if band <= 0 {
		return nil, ErrBandNotPositive
	}
	if u < 0 || u > 1 {
		return nil, fmt.Errorf("lookup: utilization %v outside [0,1]", u)
	}
	var out []Point
	for _, f := range s.axes.Flow {
		for _, tin := range s.axes.Inlet {
			p := s.At(u, units.LitersPerHour(f), units.Celsius(tin))
			if p.CPUTemp >= tsafe-band && p.CPUTemp <= tsafe+band {
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// FitError returns the largest absolute difference between the interpolated
// space and the underlying model over a refined probe grid — the fidelity of
// extending "limited measurements to a general relationship".
func (s *Space) FitError(refine int) units.Celsius {
	if refine < 2 {
		refine = 2
	}
	ua := s.axes.Utilization
	fa := s.axes.Flow
	ta := s.axes.Inlet
	worst := 0.0
	for _, u := range numeric.Linspace(ua[0], ua[len(ua)-1], refine) {
		for _, f := range numeric.Linspace(fa[0], fa[len(fa)-1], refine) {
			for _, tin := range numeric.Linspace(ta[0], ta[len(ta)-1], refine) {
				model := float64(s.spec.Temperature(u, units.LitersPerHour(f), units.Celsius(tin)))
				interp := float64(s.CPUTemp(u, units.LitersPerHour(f), units.Celsius(tin)))
				d := model - interp
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	return units.Celsius(worst)
}
