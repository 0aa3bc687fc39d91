package core

import (
	"fmt"
	"math"
	"time"

	"github.com/h2p-sim/h2p/internal/chiller"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/units"
)

// Circulation is the middle layer of the engine: one water circulation
// owning a contiguous slice [Lo, Hi) of the datacenter's servers, the
// circulation pump, the per-interval scheme decision and the facility plant
// dispatch for the heat it rejects. Circulations share no mutable state with
// each other within a control interval — the controller and look-up space
// they reference are read-only — so an Engine may step them concurrently.
type Circulation struct {
	// Index is the circulation's position in the datacenter (0-based);
	// the Engine merges per-interval contributions in Index order so that
	// results are independent of evaluation order.
	Index int
	// Lo and Hi bound the circulation's server slice in the trace column.
	Lo, Hi int

	scheme     sched.Scheme
	ctl        *sched.Controller
	plant      chiller.Plant
	pump       hydro.Pump
	maxFlow    units.LitersPerHour
	hxApproach units.Celsius
	// env is the facility environment: each step samples the interval's
	// wet-bulb, TEG cold side and reuse demand from it. The source is a pure
	// function of the interval index and read-only, so concurrent
	// circulations share it freely.
	env env.Source
	// reuse, when non-nil, takes the demand fraction of the rejected heat
	// off the plant's hands each interval.
	reuse *heatreuse.Sink

	// inj is the engine's fault injector; nil (the fault-free default) keeps
	// every step bit-identical to an engine with no fault layer at all.
	inj *fault.Injector
	// teg is inj's TEGTable for the circulation's servers: every module's
	// state for the whole run, or nil when it must be queried per interval.
	teg []float64
	// sensor guards the circulation's outlet-temperature channel against
	// injected sensor-stuck faults with bounded last-good fallback. Exactly
	// one worker steps a circulation per interval, so it needs no locking.
	sensor hydro.LastGoodSensor

	// scratch backs the controller's per-server decision buffers across
	// control intervals, so a circulation's steady-state step performs no
	// allocations. Exactly one worker steps a circulation per interval, so
	// the scratch needs no synchronization.
	scratch sched.Scratch

	// pumpMemo* cache the circulation's pump draw at the flow it last
	// commanded (pumpPowerAt): the flow's float bits, the scaled draw, and
	// whether the pair is valid yet.
	pumpMemoFlow  uint64
	pumpMemoPower units.Watts
	pumpMemoOK    bool

	// met is the engine's telemetry (nil when disabled). Each step records
	// its own latency and the outlet-temperature series through it, sharded by
	// circulation index.
	met *engineMetrics
}

// newCirculation wires one circulation from the engine's configuration. The
// pump is built (and implicitly validated) once here rather than once per
// control interval.
func newCirculation(index, lo, hi int, cfg Config, ctl *sched.Controller, plant chiller.Plant, src env.Source, met *engineMetrics, inj *fault.Injector) Circulation {
	return Circulation{
		Index:  index,
		Lo:     lo,
		Hi:     hi,
		scheme: cfg.Scheme,
		ctl:    ctl,
		plant:  plant,
		env:    src,
		reuse:  cfg.Reuse,
		met:    met,
		inj:    inj,
		teg:    inj.TEGTable(lo, hi),
		sensor: hydro.LastGoodSensor{MaxStale: inj.MaxSensorStale()},
		pump: hydro.Pump{
			Name:       "circ",
			MaxFlow:    cfg.PumpMaxFlow,
			RatedPower: cfg.PumpRatedPower,
		},
		maxFlow:    cfg.PumpMaxFlow,
		hxApproach: cfg.HXApproach,
	}
}

// Servers returns the number of servers in the circulation.
func (c *Circulation) Servers() int { return c.Hi - c.Lo }

// CirculationInterval is one circulation's contribution to an
// IntervalResult: per-circulation sums the Engine merges in Index order.
type CirculationInterval struct {
	// TEGPower and CPUPower are the circulation's summed TEG harvest and
	// CPU draw.
	TEGPower, CPUPower units.Watts
	// Inlet and Flow are the chosen cooling setting (Flow is the realized
	// flow: under an injected pump droop it sits below the commanded flow).
	Inlet units.Celsius
	Flow  units.LitersPerHour
	// Outlet is the circulation's mean coolant outlet temperature under
	// the chosen setting — the TEG hot-side temperature. It is the physical
	// truth even when the outlet sensor is faulted.
	Outlet units.Celsius
	// MaxCPUTemp is the hottest die in the circulation.
	MaxCPUTemp units.Celsius
	// PumpPower is the circulation pump draw scaled to its server count.
	PumpPower units.Watts
	// TowerPower and ChillerPower are the facility plant draws dispatched
	// for the circulation's heat.
	TowerPower, ChillerPower units.Watts
	// ReusedHeat is the thermal power the reuse sink absorbed before plant
	// dispatch — zero without a configured sink.
	ReusedHeat units.Watts

	// Fault accounting — all zero in a fault-free run.
	//
	// Degraded marks a circulation whose step failed every retry attempt:
	// the engine excludes the contribution from the interval's sums and
	// means instead of aborting or NaN-poisoning them.
	Degraded bool
	// TEGServers counts the servers contributing to TEGPower (open-circuit
	// modules are excluded from the harvest sum AND from the per-server
	// mean's denominator).
	TEGServers int
	// OpenTEG and DegradedTEG count this interval's open-circuit and
	// degradation-scaled modules.
	OpenTEG, DegradedTEG int
	// SensorStatus reports the outlet-sensor fallback state.
	SensorStatus hydro.SensorStatus
	// PumpDrooped marks an interval served below the commanded flow.
	PumpDrooped bool
	// Retries counts step attempts beyond the first.
	Retries int
}

// stepWithDecision runs one control interval for the circulation from the
// interval's scheme decision d, made against the environment sample smp by
// the batched column kernel (or by Decide, in stepBlock's fallback, which
// passes its error as derr): TEG harvest, pump, heat reuse and plant
// dispatch. The contribution is written in place into ci, the circulation's
// slot in the interval's parts.
//
// Without an injector, errors propagate to the caller untouched, with the
// slot zeroed. With one, a failing attempt is retried at once, up to the
// plan's attempt count; a circulation that fails every attempt leaves a
// Degraded contribution (no error) so one bad circulation cannot abort the
// datacenter run. The decision is a pure function of the column,
// so it is made once outside the loop: an attempt fails on an injected step
// error or on the decide error, exactly as if each attempt had decided anew.
func (c *Circulation) stepWithDecision(ci *CirculationInterval, interval int, smp *env.Sample, d *sched.Decision, derr error) error {
	if c.inj == nil {
		return c.finishOnce(ci, interval, 0, smp, d, derr)
	}
	attempts := c.inj.Retry().Attempts()
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.met.observeFault(c.Index, faultObs{retries: 1})
		}
		if err := c.finishOnce(ci, interval, a, smp, d, derr); err == nil {
			ci.Retries = a
			return nil
		}
	}
	c.met.observeFault(c.Index, faultObs{degraded: true})
	// The last failed attempt left the slot zeroed.
	ci.Degraded = true
	ci.Retries = attempts - 1
	return nil
}

// finishOnce is one stepWithDecision attempt: it zeroes the slot, then runs
// the injected-error gate, the decide error and the finish. A failed attempt
// leaves the slot zeroed.
func (c *Circulation) finishOnce(ci *CirculationInterval, interval, attempt int, smp *env.Sample, d *sched.Decision, derr error) error {
	*ci = CirculationInterval{}
	var t0 time.Time
	if c.met != nil {
		t0 = time.Now()
	}
	if c.inj.StepError(interval, c.Index, attempt) {
		return fmt.Errorf("circulation %d interval %d attempt %d: %w",
			c.Index, interval, attempt, fault.ErrInjected)
	}
	if derr != nil {
		return derr
	}
	return c.finish(ci, interval, t0, d, smp)
}

// finish turns a scheme decision into the circulation's interval
// contribution, written into the zeroed slot ci: TEG harvest, pump power,
// heat reuse, plant dispatch and the fault accounting. smp is the interval's
// environment sample — the same one the decision was evaluated against. The
// fields are assigned one by one: a composite literal would be built in a
// temporary and copied into the slot.
func (c *Circulation) finish(ci *CirculationInterval, interval int, t0 time.Time, d *sched.Decision, smp *env.Sample) error {
	ci.CPUPower = d.TotalCPUPower()
	ci.Inlet = d.Setting.Inlet
	ci.Flow = d.Setting.Flow
	ci.MaxCPUTemp = d.MaxCPUTemp
	ci.TEGServers = c.Servers()
	c.harvest(ci, d, interval)
	// Per-server pump share at the commanded flow, derated by any injected
	// droop. The realized flow feeds the physics below: outlet temperature,
	// TEG output scaling and the plant dispatch all see the droop.
	flow := d.Setting.Flow
	if flow > c.maxFlow {
		flow = c.maxFlow
	}
	meanOutlet := d.PlaneOutlet
	if ff := c.inj.FlowFactor(interval, c.Index); ff < 1 {
		ci.PumpDrooped = true
		realized := flow * units.LitersPerHour(ff)
		// Re-evaluate the plane physics at the realized flow. It is off the
		// look-up grid, so these lookups stay trilinear. The TEG sum is
		// rescaled by the plane-utilization power ratio: exact under
		// LoadBalance (every server runs at the plane utilization) and
		// first-order under Original (servers share one setting; the hottest
		// server dominates the ratio).
		droopOutlet := c.ctl.Space.OutletTemp(d.PlaneU, realized, d.Setting.Inlet)
		healthy := c.ctl.PowerAt(d.Setting, d.PlaneU, smp.ColdSide)
		drooped := c.ctl.PowerAt(sched.Setting{Flow: realized, Inlet: d.Setting.Inlet}, d.PlaneU, smp.ColdSide)
		if healthy > 0 {
			ci.TEGPower *= units.Watts(float64(drooped) / float64(healthy))
		}
		if t := c.ctl.Space.CPUTemp(d.PlaneU, realized, d.Setting.Inlet); t > ci.MaxCPUTemp {
			ci.MaxCPUTemp = t
		}
		flow, meanOutlet = realized, droopOutlet
		ci.Flow = realized
	}
	pumpPower, err := c.pumpPowerAt(flow)
	if err != nil {
		*ci = CirculationInterval{}
		return err
	}
	ci.PumpPower = pumpPower
	// Facility plant: reject the circulation's heat, returning water at
	// the sensed outlet, re-supplied below the inlet target by the HX
	// approach. The control loop acts on the sensor; ci.Outlet stays the
	// physical truth.
	heat := ci.CPUPower
	ci.Outlet = meanOutlet
	sensedOutlet := meanOutlet
	if c.inj != nil {
		stuck := c.inj.SensorStuck(interval, c.Index)
		sensedOutlet, ci.SensorStatus = c.sensor.Read(meanOutlet, stuck)
	}
	// Heat reuse competes with the plant for the rejected heat: the sink
	// absorbs the demand fraction (when the physical outlet carries enough
	// grade) and the tower/chiller only dispatch for the remainder. A nil
	// sink leaves heat — and the dispatch arithmetic — untouched.
	if c.reuse != nil {
		ci.ReusedHeat = c.reuse.Absorb(heat, meanOutlet, smp.HeatDemand)
		heat -= ci.ReusedHeat
	}
	target := d.Setting.Inlet - c.hxApproach
	ci.TowerPower, ci.ChillerPower = c.plant.Dispatch(heat, sensedOutlet, target, smp.WetBulb)
	if ci.OpenTEG > 0 || ci.DegradedTEG > 0 || ci.PumpDrooped || ci.SensorStatus != hydro.SensorFresh {
		c.met.observeFault(c.Index, faultObs{
			openTEG:        ci.OpenTEG,
			degradedTEG:    ci.DegradedTEG,
			pumpDroop:      ci.PumpDrooped,
			sensorStale:    ci.SensorStatus == hydro.SensorStale,
			sensorDegraded: ci.SensorStatus == hydro.SensorDegraded,
		})
	}
	c.met.observeStep(c.Index, t0, float64(meanOutlet))
	return nil
}

// pumpPowerAt commands the pump to flow and returns its draw scaled to the
// circulation's server count. The draw is memoized on the flow's bits: the
// pump is only re-commanded, and its cubic law only re-evaluated, when the
// flow changes. The memo is derived state — invalid until the first call,
// never checkpointed — and a rejected flow leaves it as it was.
func (c *Circulation) pumpPowerAt(flow units.LitersPerHour) (units.Watts, error) {
	bits := math.Float64bits(float64(flow))
	if c.pumpMemoOK && bits == c.pumpMemoFlow {
		return c.pumpMemoPower, nil
	}
	if err := c.pump.SetFlow(flow); err != nil {
		return 0, err
	}
	c.pumpMemoFlow = bits
	c.pumpMemoPower = c.pump.Power() * units.Watts(float64(c.Servers()))
	c.pumpMemoOK = true
	return c.pumpMemoPower, nil
}

// harvest fills the circulation's TEG sum. Fault-free (nil injector) it is
// the straight per-server sum — bit-identical to summing the decision —
// while under faults open-circuit modules are excluded from both the sum and
// the contributing-server count, and degraded modules are scaled by their
// physical output factor. Both come from the circulation's TEG table when
// the plan has one, and from the injector's per-interval queries otherwise.
func (c *Circulation) harvest(ci *CirculationInterval, d *sched.Decision, interval int) {
	if c.inj == nil {
		ci.TEGPower = d.TotalTEGPower()
		return
	}
	var sum units.Watts
	for i, p := range d.PerServerPower {
		var f float64
		if c.teg != nil {
			f = c.teg[i]
		} else if server := c.Lo + i; c.inj.TEGOpen(interval, server) {
			f = fault.TEGTableOpen
		} else {
			f = c.inj.TEGFactor(interval, server)
		}
		if f == fault.TEGTableOpen {
			ci.OpenTEG++
			ci.TEGServers--
			continue
		}
		if f < 1 {
			ci.DegradedTEG++
			p *= units.Watts(f)
		}
		sum += p
	}
	ci.TEGPower = sum
}
