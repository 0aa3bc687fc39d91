// Package sched implements the software-level optimizations of Sec. V-B:
// the per-interval cooling-setting selection (Steps 1-3 over the look-up
// space) and the two workload-scheduling schemes the paper compares —
// TEG_Original (cooling adjustment only) and TEG_LoadBalance (cooling
// adjustment plus workload balancing).
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/stats"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

// Scheme selects the workload-scheduling strategy of Sec. V-C.
type Scheme string

// The two schemes compared in Figs. 14-15.
const (
	// Original adjusts the cooling setting to the hottest server
	// (the U_max plane) and does no workload scheduling.
	Original Scheme = "TEG_Original"
	// LoadBalance first spreads the circulation's load evenly across its
	// servers, then adjusts the cooling setting to the (now common)
	// average utilization (the U_avg plane).
	LoadBalance Scheme = "TEG_LoadBalance"
)

// Setting is a circulation-wide cooling configuration: the coolant flow rate
// and inlet water temperature chosen each control interval.
type Setting struct {
	Flow  units.LitersPerHour
	Inlet units.Celsius
}

// Controller picks cooling settings from the look-up space so that the CPU
// stays near its safe temperature while TEG output is maximized.
//
// The decide surface is four methods, each taking the interval's TEG
// cold-side temperature explicitly (the facility environment varies it):
// Choose (Steps 1-3 for one plane), PowerAt (one server's module output),
// Decide (one circulation) and DecideBatchCold (a column of circulations).
// Decide is a single-group adapter over DecideBatchCold, the one decision
// implementation.
//
// A Controller is safe for concurrent use by multiple goroutines as long as
// its fields are not mutated after construction: every decide path only
// reads the look-up space, the module and the power curve, and the counters
// are atomic. A Controller keeps no decision from one call to the next.
type Controller struct {
	// Space is the fitted measurement space.
	Space *lookup.Space
	// Module is the per-server TEG module whose output is maximized.
	Module *teg.Module
	// ColdSource is the default TEG cold-side water temperature (~20 °C):
	// the value callers without a facility environment pass as the cold
	// side. The decide surface never reads it; every entry point takes the
	// interval's cold side as an argument.
	ColdSource units.Celsius
	// TSafe is the CPU safe operating temperature (Fig. 13: 62 °C).
	TSafe units.Celsius
	// Band is the half-width of the safety slab X around TSafe (1 °C).
	Band units.Celsius
	// CacheQuantum is the decision quantum: the plane utilization is
	// snapped to a multiple of it before the cooling setting is selected,
	// so the groups of a column whose planes snap together share one slab
	// scan. 0 (the default) keeps the exact plane value and the
	// paper-faithful results. A positive quantum (e.g. 1/512) trades a
	// sub-quantum perturbation of the plane for fewer distinct planes per
	// column.
	CacheQuantum float64

	// hits/calls count decisions: calls every decision that reached a
	// plane, hits those whose plane an earlier group of the same
	// DecideBatchCold call had already resolved. They are this
	// controller's own sharded telemetry counters; DecideBatchCold adds
	// each total once per call, so live reads move a column at a time. An
	// attached registry's counters move beside them.
	hits, calls *telemetry.Counter

	// met carries the optional decision metrics (chosen-setting
	// distribution, power-curve evaluation counts). nil — the default —
	// disables them: the hot path pays one branch and nothing else.
	met *schedMetrics

	// curve is the precomputed power-vs-outlet-temperature curve
	// (powercurve.go), derived from Module by NewController. Every decide
	// path requires it, so a Controller must come from NewController.
	curve *powerCurve
}

// CacheStats reports the controller's lifetime decision counts: calls is
// every decision made, hits the decisions whose plane an earlier group of
// the same DecideBatchCold call had already resolved. Choose never hits.
// The counts depend only on the columns decided, so a run's totals are a
// function of its shard layout. It only sums atomic counters — it takes no
// lock and never contends with concurrent decisions. It reads this
// controller's own counters, never an attached registry's, which aggregate
// every controller sharing the registry.
func (c *Controller) CacheStats() (hits, calls uint64) {
	return c.hits.Value(), c.calls.Value()
}

// quantizePlane snaps the plane utilization to the decision quantum,
// staying inside [0, 1].
func (c *Controller) quantizePlane(planeU float64) float64 {
	if c.CacheQuantum <= 0 {
		return planeU
	}
	q := math.Round(planeU/c.CacheQuantum) * c.CacheQuantum
	return math.Min(1, math.Max(0, q))
}

// NewController wires a controller with the paper's defaults for the safety
// parameters. The module must be fully configured — in particular its
// FlowDerating — before the call: the controller precomputes the module's
// power-vs-outlet-temperature curve here, since the flow axis is fixed for
// the controller's lifetime.
func NewController(space *lookup.Space, module *teg.Module, cold units.Celsius) (*Controller, error) {
	if space == nil {
		return nil, errors.New("sched: nil look-up space")
	}
	if module == nil {
		return nil, errors.New("sched: nil TEG module")
	}
	return &Controller{
		Space:      space,
		Module:     module,
		ColdSource: cold,
		TSafe:      space.Spec().SafeTemp,
		Band:       1,
		curve:      newPowerCurve(space, module),
		hits:       telemetry.NewCounter(metricCacheHits),
		calls:      telemetry.NewCounter(metricCacheCalls),
	}, nil
}

// PowerAt returns the TEG module output of a server running at utilization u
// under the given cooling setting: the outlet temperature from the look-up
// space drives the module against the cold-side temperature cold (Eqs. 2
// and 7).
func (c *Controller) PowerAt(s Setting, u float64, cold units.Celsius) units.Watts {
	outlet := c.Space.OutletTemp(u, s.Flow, s.Inlet)
	dT := outlet - cold
	if dT <= 0 {
		return 0
	}
	return c.Module.MaxPower(dT, s.Flow)
}

// Choose implements Steps 1-3 of Sec. V-B1 for the control-plane utilization
// planeU (U_max under Original, U_avg under LoadBalance) against the TEG
// cold-side temperature cold:
//
//  1. draw the utilization plane,
//  2. intersect it with the safety slab X (CPU temperature within
//     TSafe±Band),
//  3. among the candidate {flow, inlet} settings, pick the one maximizing
//     TEG output power.
//
// If the slab intersection is empty — at low utilization even the warmest
// admissible inlet cannot push the die up to TSafe — the controller falls
// back to the safety-constrained optimum: maximum TEG power over all
// settings whose CPU temperature does not exceed TSafe+Band.
//
// Choose quantizes the plane and runs resolvePlane, the fused slab-row
// kernel DecideBatchCold runs once per distinct plane of a column. It
// counts one call and no hit, and allocates nothing unless the slab is
// empty and the fallback needs a whole plane's rows.
func (c *Controller) Choose(planeU float64, cold units.Celsius) (Setting, units.Watts, error) {
	if planeU < 0 || planeU > 1 {
		return Setting{}, 0, errUtilizationOutsideUnit(planeU)
	}
	planeU = c.quantizePlane(planeU)
	hint := bucketOf(math.Float64bits(planeU))
	c.addDecisionCounts(hint, 1, 0)
	idx := c.Space.SegmentIndex(c.TSafe-c.Band, c.TSafe+c.Band)
	var buf []lookup.SlabRow
	setting, power, _, visited, err := c.resolvePlane(idx, planeU, cold, &buf)
	if m := c.met; m != nil {
		m.curveEvals.Add(uint64(visited))
	}
	if err != nil {
		return Setting{}, 0, err
	}
	c.observeChoice(hint, setting)
	return setting, power, nil
}

// errUtilizationOutsideUnit is Choose's validation error, shared with
// DecideBatchCold's reduction so both paths fail with identical messages.
func errUtilizationOutsideUnit(planeU float64) error {
	return fmt.Errorf("sched: utilization %v outside [0,1]", planeU)
}

// errNoSafeSetting is resolvePlane's empty-intersection failure.
func errNoSafeSetting(planeU float64) error {
	return fmt.Errorf("sched: no safe cooling setting for u=%v", planeU)
}

// ErrEmptyUtilizations is returned when a decision is requested over an
// empty utilization set — a circulation with no servers has no plane to
// draw. DecideBatchCold wraps it in a GroupError attributing the offending
// group; errors.Is sees through the wrapper.
var ErrEmptyUtilizations = errors.New("sched: empty utilization set")

// PlaneUtilization reduces a circulation's per-server utilizations to the
// control-plane value for the scheme: the maximum under Original, the mean
// under LoadBalance.
func PlaneUtilization(us []float64, scheme Scheme) (float64, error) {
	if len(us) == 0 {
		return 0, ErrEmptyUtilizations
	}
	switch scheme {
	case Original:
		return stats.Max(us), nil
	case LoadBalance:
		return stats.Mean(us), nil
	default:
		return 0, fmt.Errorf("sched: unknown scheme %q", scheme)
	}
}

// EffectiveUtilizations returns the per-server utilizations after the scheme
// has (or has not) rescheduled work. Original leaves the workload untouched;
// LoadBalance spreads the circulation's total work evenly. The slice is
// freshly allocated.
func EffectiveUtilizations(us []float64, scheme Scheme) ([]float64, error) {
	if len(us) == 0 {
		return nil, ErrEmptyUtilizations
	}
	switch scheme {
	case Original:
		return slices.Clone(us), nil
	case LoadBalance:
		out := make([]float64, len(us))
		avg := stats.Mean(us)
		for i := range out {
			out[i] = avg
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sched: unknown scheme %q", scheme)
	}
}

// Decision is the outcome of one control interval for one circulation.
type Decision struct {
	Scheme  Scheme
	PlaneU  float64
	Setting Setting
	// PerServerPower is the TEG output of each server's module under the
	// chosen setting and the scheme's effective utilizations.
	PerServerPower []units.Watts
	// PerServerCPUPower is each server's electrical draw (Eq. 20).
	PerServerCPUPower []units.Watts
	// MaxCPUTemp is the hottest die in the circulation under the setting.
	MaxCPUTemp units.Celsius
	// PlaneOutlet is the coolant outlet temperature at PlaneU under
	// Setting: the circulation's mean outlet, the TEG hot side.
	PlaneOutlet units.Celsius
}

// Scratch holds the reusable per-circulation buffers of the decision path:
// the per-server output slices a Decision points into. A Scratch may be
// reused across Decide calls by one goroutine at a time (the engine keeps one
// per circulation); the zero value is ready to use.
type Scratch struct {
	power    []units.Watts
	cpuPower []units.Watts

	// Single-group adapter state: Decide routes through DecideBatchCold with
	// the whole slice as one group, so a lone Scratch carries the batch
	// working set and the fixed-size argument windows the adapter hands over.
	bs   BatchScratch
	rng  [1]Range
	dec  [1]Decision
	self [1]*Scratch
}

// grow resizes the buffers to n servers, reusing capacity.
func (sc *Scratch) grow(n int) {
	if cap(sc.power) < n {
		sc.power = make([]units.Watts, n)
		sc.cpuPower = make([]units.Watts, n)
	}
	sc.power = sc.power[:n]
	sc.cpuPower = sc.cpuPower[:n]
}

// Decide runs one full control interval for a circulation with the given raw
// per-server utilizations against the TEG cold-side temperature cold. The
// returned Decision's PerServerPower/PerServerCPUPower alias sc, which must
// be non-nil, and stay valid until the next call with the same scratch. Once
// the scratch has grown to the circulation's size the call performs zero
// allocations.
//
// Decide is a thin single-group adapter over DecideBatchCold — the batched
// column kernel is the one decision implementation — and returns the group's
// error unwrapped.
func (c *Controller) Decide(us []float64, scheme Scheme, cold units.Celsius, sc *Scratch) (Decision, error) {
	sc.rng[0] = Range{Lo: 0, Hi: len(us)}
	sc.self[0] = sc
	if err := c.DecideBatchCold(us, sc.rng[:], scheme, cold, &sc.bs, sc.self[:], sc.dec[:]); err != nil {
		var ge GroupError
		if errors.As(err, &ge) {
			return Decision{}, ge.Err
		}
		return Decision{}, err
	}
	return sc.dec[0], nil
}

// TotalTEGPower sums the decision's per-server TEG output. Both totals take
// a pointer receiver: the engine calls them once per circulation-interval,
// and a value receiver would copy the whole Decision each time.
func (d *Decision) TotalTEGPower() units.Watts {
	var sum units.Watts
	for _, p := range d.PerServerPower {
		sum += p
	}
	return sum
}

// TotalCPUPower sums the decision's per-server CPU draw.
func (d *Decision) TotalCPUPower() units.Watts {
	var sum units.Watts
	for _, p := range d.PerServerCPUPower {
		sum += p
	}
	return sum
}
