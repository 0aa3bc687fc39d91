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
// A Controller is safe for concurrent use by multiple goroutines as long as
// its fields are not mutated after construction: Choose and Decide only read
// the look-up space and module, and the decision cache is internally
// synchronized.
type Controller struct {
	// Space is the fitted measurement space.
	Space *lookup.Space
	// Module is the per-server TEG module whose output is maximized.
	Module *teg.Module
	// ColdSource is the default TEG cold-side water temperature (~20 °C):
	// the value the cold-agnostic entry points (Choose, PowerAt, Decide*)
	// evaluate against. The *Cold variants take the interval's cold side
	// explicitly — the pluggable environment (internal/env) varies it.
	ColdSource units.Celsius
	// TSafe is the CPU safe operating temperature (Fig. 13: 62 °C).
	TSafe units.Celsius
	// Band is the half-width of the safety slab X around TSafe (1 °C).
	Band units.Celsius
	// CacheQuantum quantizes the plane utilization before the cooling
	// setting is selected, so that revisited planes hit the memoized
	// decision cache instead of re-running the slab intersection. 0 (the
	// default) keeps the exact plane value: the cache then only fires on
	// bit-identical planes, which preserves the uncached results exactly.
	// A positive quantum (e.g. 1/512) trades a sub-quantum perturbation
	// of the plane for a near-perfect hit rate on real traces.
	CacheQuantum float64

	// The memoized Step 1-3 outcomes, keyed on the (quantized) plane
	// utilization bits: a sharded lock-free table (cache.go). Settings are
	// a pure function of the plane, so concurrent fills are benign and
	// order-independent.
	cache decisionCache
	// hits/calls/inserts instrument the cache: sharded telemetry counters
	// (the key's bucket hash is the shard hint, so workers on distinct
	// planes touch distinct cache lines). NewController creates them
	// standalone; AttachTelemetry swaps in registry-owned counters so a
	// run's exporters see them. CacheStats reads whichever are current.
	hits, calls, inserts *telemetry.Counter

	// met carries the optional decision metrics (chosen-setting
	// distribution, power-curve evaluation counts). nil — the default —
	// disables them: the hot path pays one branch and nothing else.
	met *schedMetrics

	// curve is the precomputed power-vs-outlet-temperature curve
	// (powercurve.go), derived from Module and ColdSource by NewController.
	// A controller assembled without NewController leaves it nil and the
	// candidate scan falls back to the (bit-identical) module path.
	curve *powerCurve
}

// CacheStats reports the decision cache's lifetime hit count and total
// Choose call count. It only sums atomic counters — it takes no lock and
// never contends with concurrent Choose calls. The counters live in the
// telemetry layer; this accessor is the historical API, kept as a thin
// adapter over them.
func (c *Controller) CacheStats() (hits, calls uint64) {
	return c.hits.Value(), c.calls.Value()
}

// quantizePlane snaps the plane utilization to the cache quantum, staying
// inside [0, 1].
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
// power-vs-outlet-temperature curve here, since the cold source and the flow
// axis are fixed for the controller's lifetime.
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
		curve:      newPowerCurve(space, module, cold),
		hits:       telemetry.NewCounter(metricCacheHits),
		calls:      telemetry.NewCounter(metricCacheCalls),
		inserts:    telemetry.NewCounter(metricCacheInserts),
	}, nil
}

// PowerAt returns the TEG module output of a server running at utilization u
// under the given cooling setting: the outlet temperature from the look-up
// space drives the module against the default cold source (Eqs. 2 and 7).
func (c *Controller) PowerAt(s Setting, u float64) units.Watts {
	return c.PowerAtCold(s, u, c.ColdSource)
}

// PowerAtCold is PowerAt against an explicit cold-side temperature — the
// per-interval value of the facility environment. PowerAtCold(s, u,
// c.ColdSource) is bit-identical to PowerAt(s, u).
func (c *Controller) PowerAtCold(s Setting, u float64, cold units.Celsius) units.Watts {
	outlet := c.Space.OutletTemp(u, s.Flow, s.Inlet)
	dT := outlet - cold
	if dT <= 0 {
		return 0
	}
	return c.Module.MaxPower(dT, s.Flow)
}

// Choose implements Steps 1-3 of Sec. V-B1 for the control-plane utilization
// planeU (U_max under Original, U_avg under LoadBalance):
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
// Outcomes are memoized per (quantized) plane: traces revisit the same
// plane constantly, and the chosen setting is a pure function of it. Once
// the cache is full, a plane is memoized on its second miss (see cache.go),
// so one-shot exact planes do not crowd it. A cache hit performs zero
// allocations and takes no mutex — one atomic load plus a chain walk — so
// concurrent workers never serialize on a warm controller.
func (c *Controller) Choose(planeU float64) (Setting, units.Watts, error) {
	return c.ChooseCold(planeU, c.ColdSource)
}

// ChooseCold is Choose against an explicit cold-side temperature. Outcomes
// are memoized per (quantized plane, cold) pair, so decisions made under
// different interval environments never alias: a cached decision is always
// exactly the one an uncached scan at that cold side would make.
func (c *Controller) ChooseCold(planeU float64, cold units.Celsius) (Setting, units.Watts, error) {
	setting, power, _, err := c.chooseCached(planeU, cold)
	return setting, power, err
}

// errUtilizationOutsideUnit is Choose's validation error, shared with the
// batch probe so both paths fail with identical messages.
func errUtilizationOutsideUnit(planeU float64) error {
	return fmt.Errorf("sched: utilization %v outside [0,1]", planeU)
}

// chooseCached is Choose plus the winning candidate's flat cell index, which
// the batch per-server kernel indexes the flattened stencils with.
func (c *Controller) chooseCached(planeU float64, cold units.Celsius) (Setting, units.Watts, int32, error) {
	if planeU < 0 || planeU > 1 {
		return Setting{}, 0, 0, errUtilizationOutsideUnit(planeU)
	}
	planeU = c.quantizePlane(planeU)
	key := math.Float64bits(planeU)
	cb := math.Float64bits(float64(cold))
	hint := bucketOf(key)
	c.calls.AddHint(hint, 1)
	if setting, power, cell, ok := c.cache.load(key, cb); ok {
		c.hits.AddHint(hint, 1)
		c.observeChoice(hint, setting)
		return setting, power, cell, nil
	}
	setting, power, cell, err := c.choose(planeU, cold)
	if err != nil {
		return Setting{}, 0, 0, err
	}
	if c.cache.store(key, cb, setting, power, cell) {
		c.inserts.AddHint(hint, 1)
	}
	c.observeChoice(hint, setting)
	return setting, power, cell, nil
}

// choose runs the uncached Steps 1-3 at the exact plane utilization,
// streaming the candidate cells of the flattened look-up tables instead of
// materializing a []Point: Step 2's slab intersection and Step 3's argmax
// fuse into one allocation-free scan. The visit order matches the seed's
// PlaneIntersection order and the power evaluation is bit-identical, so the
// chosen setting never drifts from the slice-based implementation.
func (c *Controller) choose(planeU float64, cold units.Celsius) (Setting, units.Watts, int32, error) {
	best := Setting{}
	bestP := units.Watts(-1)
	bestCell := int32(0)
	found := false
	evals := 0 // candidate power evaluations, reported once per miss
	err := c.Space.VisitPlaneIntersection(planeU, c.TSafe, c.Band, func(cell int, p lookup.Point) bool {
		found = true
		evals++
		if pw := c.candidatePower(cell, p, cold); pw > bestP {
			best, bestP, bestCell = Setting{Flow: p.Flow, Inlet: p.Inlet}, pw, int32(cell)
		}
		return true
	})
	if err != nil {
		return Setting{}, 0, 0, err
	}
	if !found {
		// Fallback: the slab is unreachable (at low utilization even the
		// warmest admissible inlet cannot push the die up to TSafe), so
		// optimize over every setting keeping the die at or below
		// TSafe+Band.
		err = c.Space.VisitPlane(planeU, func(cell int, p lookup.Point) bool {
			if p.CPUTemp <= c.TSafe+c.Band {
				found = true
				evals++
				if pw := c.candidatePower(cell, p, cold); pw > bestP {
					best, bestP, bestCell = Setting{Flow: p.Flow, Inlet: p.Inlet}, pw, int32(cell)
				}
			}
			return true
		})
		if err != nil {
			return Setting{}, 0, 0, err
		}
	}
	if m := c.met; m != nil {
		m.curveEvals.Add(uint64(evals))
	}
	if !found {
		return Setting{}, 0, 0, errNoSafeSetting(planeU)
	}
	return best, bestP, bestCell, nil
}

// errNoSafeSetting is the empty-intersection failure, shared between the
// scalar and batch scans so both report identical errors.
func errNoSafeSetting(planeU float64) error {
	return fmt.Errorf("sched: no safe cooling setting for u=%v", planeU)
}

// candidatePower returns the TEG module output of a streamed candidate,
// through the precomputed curve when available. Both paths produce the same
// bits as PowerAtCold on the candidate's setting: the streamed Outlet equals
// the interpolated OutletTemp on grid-aligned cells.
func (c *Controller) candidatePower(cell int, p lookup.Point, cold units.Celsius) units.Watts {
	if c.curve != nil {
		return c.curve.powerAt(cell, p.Outlet, float64(cold))
	}
	dT := p.Outlet - cold
	if dT <= 0 {
		return 0
	}
	return c.Module.MaxPower(dT, p.Flow)
}

// ErrEmptyUtilizations is returned when a decision is requested over an
// empty utilization set — a circulation with no servers has no plane to
// draw. DecideBatch wraps it in a GroupError attributing the offending
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
	out := make([]float64, len(us))
	if err := effectiveInto(out, us, scheme); err != nil {
		return nil, err
	}
	return out, nil
}

// effectiveInto writes the scheme's effective utilizations into dst, which
// must have len(us).
func effectiveInto(dst, us []float64, scheme Scheme) error {
	switch scheme {
	case Original:
		copy(dst, us)
	case LoadBalance:
		avg := stats.Mean(us)
		for i := range dst {
			dst[i] = avg
		}
	default:
		return fmt.Errorf("sched: unknown scheme %q", scheme)
	}
	return nil
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
// the effective-utilization working set and the per-server output slices a
// Decision points into. A Scratch may be reused across DecideInto calls by
// one goroutine at a time (the parallel engine keeps one per circulation);
// the zero value is ready to use.
type Scratch struct {
	eff      []float64
	power    []units.Watts
	cpuPower []units.Watts

	// Single-group adapter state: DecideInto routes through DecideBatch with
	// the whole slice as one group, so a lone Scratch carries the batch
	// working set and the fixed-size argument windows the adapter hands over.
	bs   BatchScratch
	rng  [1]Range
	dec  [1]Decision
	self [1]*Scratch
}

// grow resizes the buffers to n servers, reusing capacity.
func (sc *Scratch) grow(n int) {
	if cap(sc.eff) < n {
		sc.eff = make([]float64, n)
		sc.power = make([]units.Watts, n)
		sc.cpuPower = make([]units.Watts, n)
	}
	sc.eff = sc.eff[:n]
	sc.power = sc.power[:n]
	sc.cpuPower = sc.cpuPower[:n]
}

// Decide runs one full control interval for a circulation with the given raw
// per-server utilizations. The returned Decision owns freshly allocated
// per-server slices; the engine's steady-state path is DecideInto.
func (c *Controller) Decide(us []float64, scheme Scheme) (Decision, error) {
	return c.DecideInto(us, scheme, &Scratch{})
}

// DecideInto is Decide with caller-owned buffers: the returned Decision's
// PerServerPower/PerServerCPUPower alias sc and stay valid until the next
// DecideInto with the same scratch. With a warm decision cache the call
// performs zero allocations, which is what lets the parallel engine hold
// its per-interval cost flat. Results are bit-identical to Decide.
//
// DecideInto is a thin single-group adapter over DecideBatch — the batched
// column kernel is the one decision implementation — and stays bit-identical
// to the scalar reference path DecideSerial.
func (c *Controller) DecideInto(us []float64, scheme Scheme, sc *Scratch) (Decision, error) {
	return c.DecideIntoCold(us, scheme, c.ColdSource, sc)
}

// DecideIntoCold is DecideInto against an explicit cold-side temperature.
func (c *Controller) DecideIntoCold(us []float64, scheme Scheme, cold units.Celsius, sc *Scratch) (Decision, error) {
	if c.curve == nil {
		// A controller assembled without NewController has no precomputed
		// power curve; the batch kernels require it, the scalar path does not.
		return c.DecideSerialCold(us, scheme, cold, sc)
	}
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

// DecideSerial is the scalar reference implementation of a control interval:
// one Choose on the plane utilization, then per-server evaluation through
// the interpolated look-up calls. The batch kernels are pinned bit-identical
// to it — it is the referee of the equivalence suites and the fallback for
// controllers assembled without NewController.
func (c *Controller) DecideSerial(us []float64, scheme Scheme, sc *Scratch) (Decision, error) {
	return c.DecideSerialCold(us, scheme, c.ColdSource, sc)
}

// DecideSerialCold is DecideSerial against an explicit cold-side
// temperature: the per-interval environment's value flows into the plane
// choice and every per-server power evaluation, through the exact scalar
// operation sequence.
func (c *Controller) DecideSerialCold(us []float64, scheme Scheme, cold units.Celsius, sc *Scratch) (Decision, error) {
	planeU, err := PlaneUtilization(us, scheme)
	if err != nil {
		return Decision{}, err
	}
	setting, _, err := c.ChooseCold(planeU, cold)
	if err != nil {
		return Decision{}, err
	}
	sc.grow(len(us))
	if err := effectiveInto(sc.eff, us, scheme); err != nil {
		return Decision{}, err
	}
	d := Decision{
		Scheme:            scheme,
		PlaneU:            planeU,
		Setting:           setting,
		PerServerPower:    sc.power,
		PerServerCPUPower: sc.cpuPower,
		PlaneOutlet:       c.Space.OutletTemp(planeU, setting.Flow, setting.Inlet),
	}
	spec := c.Space.Spec()
	if scheme == LoadBalance {
		// Balancing makes every server identical: evaluate the (interpolated)
		// per-server terms once and broadcast, instead of re-running the
		// trilinear lookups per server. eff[i] are all the same value, so the
		// broadcast is bit-identical to the per-server loop below.
		u := sc.eff[0]
		pw := c.PowerAtCold(setting, u, cold)
		cp := spec.Power(u)
		for i := range sc.eff {
			d.PerServerPower[i] = pw
			d.PerServerCPUPower[i] = cp
		}
		if t := c.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
		return d, nil
	}
	for i, u := range sc.eff {
		d.PerServerPower[i] = c.PowerAtCold(setting, u, cold)
		d.PerServerCPUPower[i] = spec.Power(u)
		if t := c.Space.CPUTemp(u, setting.Flow, setting.Inlet); t > d.MaxCPUTemp {
			d.MaxCPUTemp = t
		}
	}
	return d, nil
}

// TotalTEGPower sums the decision's per-server TEG output.
func (d Decision) TotalTEGPower() units.Watts {
	var sum units.Watts
	for _, p := range d.PerServerPower {
		sum += p
	}
	return sum
}

// TotalCPUPower sums the decision's per-server CPU draw.
func (d Decision) TotalCPUPower() units.Watts {
	var sum units.Watts
	for _, p := range d.PerServerCPUPower {
		sum += p
	}
	return sum
}
