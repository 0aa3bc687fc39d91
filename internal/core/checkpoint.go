package core

import (
	"fmt"
	"time"

	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// CheckpointVersion is the current checkpoint schema version. Resume rejects
// any other version rather than guessing at field semantics.
const CheckpointVersion = 1

// Checkpoint is a streaming run frozen at an interval boundary: everything
// RunSourceContext needs to continue from NextInterval and produce bits
// identical to the uninterrupted run.
//
// The engine's cross-interval state is deliberately small, which is what
// makes exact resume possible:
//
//   - The running aggregates (energy sums, the per-server TEG power sum and
//     peak, the utilization sum, the fault summary) accumulate in interval
//     order, so restoring them and continuing the loop reassociates no
//     floating-point sum. float64 values survive the JSON round trip exactly
//     (encoding/json emits the shortest representation that parses back to
//     the same bits).
//   - Sensors holds each circulation's LastGoodSensor snapshot — the only
//     mutable physics state that crosses an interval boundary.
//   - The fault injector needs no state at all: activation is a pure
//     function of (seed, stream, unit, interval), so the resumed run asks
//     the same questions and gets the same answers (see fault.Injector).
//   - No decision state is saved: the controller keeps none across
//     intervals. Files written with the retired decision cache's
//     "cache_keys" field still decode: encoding/json ignores it.
//   - Series retains the per-interval results when the run keeps its series
//     (RunOptions.KeepSeries), so a resumed run can still render the full
//     interval series byte-identically.
type Checkpoint struct {
	Version int `json:"version"`

	// Run identity — validated on resume so a checkpoint can never be
	// replayed against a different trace, shape or scheme.
	TraceName string        `json:"trace_name"`
	Class     trace.Class   `json:"class"`
	Scheme    sched.Scheme  `json:"scheme"`
	Servers   int           `json:"servers"`
	Intervals int           `json:"intervals"`
	Interval  time.Duration `json:"interval_ns"`

	// NextInterval is the first interval the resumed run evaluates.
	NextInterval int `json:"next_interval"`

	// Running aggregates at the boundary.
	SumTEGPerServer  float64      `json:"sum_teg_per_server_w"`
	PeakTEGPerServer float64      `json:"peak_teg_per_server_w"`
	SumAvgUtil       float64      `json:"sum_avg_util"`
	TEGEnergy        float64      `json:"teg_energy_kwh"`
	CPUEnergy        float64      `json:"cpu_energy_kwh"`
	PlantEnergy      float64      `json:"plant_energy_kwh"`
	ReusedHeat       float64      `json:"reused_heat_kwh,omitempty"`
	StorageStored    float64      `json:"storage_stored_kwh,omitempty"`
	StorageDelivered float64      `json:"storage_delivered_kwh,omitempty"`
	StorageSpilled   float64      `json:"storage_spilled_kwh,omitempty"`
	Faults           FaultSummary `json:"faults"`

	// EnvFingerprint pins the environment position: sources are pure
	// functions of the interval index (see env.Source), so the fingerprint
	// plus NextInterval is the complete environment state. Resume rejects a
	// mismatched fingerprint — continuing under a different environment would
	// silently splice two different climates into one run. Empty (a
	// checkpoint predating the environment layer) skips the check.
	EnvFingerprint string `json:"env_fingerprint,omitempty"`

	// StorageWh is the buffer's per-element state of charge in [SC, Battery]
	// order — the only storage state that crosses an interval boundary.
	// Empty means the run had no buffer.
	StorageWh []float64 `json:"storage_wh,omitempty"`

	// Sensors is one snapshot per circulation, in circulation index order.
	Sensors []hydro.SensorState `json:"sensors"`

	// Series is the retained per-interval results (KeepSeries runs only);
	// len(Series) == NextInterval.
	Series []IntervalResult `json:"series,omitempty"`
}

// ValidateFor checks the checkpoint against the source shape and engine
// configuration it is about to resume; RunSourceContext calls it on its
// Resume option. The checkpoint carries no shard layout, so any worker count
// may resume it.
func (cp *Checkpoint) ValidateFor(m trace.Meta, cfg Config, circulations int, keepSeries bool) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, engine speaks %d", cp.Version, CheckpointVersion)
	}
	if cp.TraceName != m.Name || cp.Servers != m.Servers || cp.Intervals != m.Intervals || cp.Interval != m.Interval {
		return fmt.Errorf("core: checkpoint is for trace %q (%dx%d @ %v), source is %q (%dx%d @ %v)",
			cp.TraceName, cp.Servers, cp.Intervals, cp.Interval,
			m.Name, m.Servers, m.Intervals, m.Interval)
	}
	if cp.Scheme != cfg.Scheme {
		return fmt.Errorf("core: checkpoint is for scheme %q, engine runs %q", cp.Scheme, cfg.Scheme)
	}
	if cp.NextInterval <= 0 || cp.NextInterval >= m.Intervals {
		return fmt.Errorf("core: checkpoint resumes at interval %d outside (0,%d)", cp.NextInterval, m.Intervals)
	}
	if len(cp.Sensors) != circulations {
		return fmt.Errorf("core: checkpoint has %d sensor snapshots, engine forms %d circulations",
			len(cp.Sensors), circulations)
	}
	for ci, st := range cp.Sensors {
		if err := st.Validate(); err != nil {
			return fmt.Errorf("core: checkpoint circulation %d: %w", ci, err)
		}
	}
	if keepSeries && len(cp.Series) != cp.NextInterval {
		return fmt.Errorf("core: series retention requested but checkpoint holds %d of %d intervals"+
			" (was the checkpointed run started without it?)", len(cp.Series), cp.NextInterval)
	}
	if cp.EnvFingerprint != "" {
		if fp := cfg.EnvSource().Fingerprint(); cp.EnvFingerprint != fp {
			return fmt.Errorf("core: checkpoint was taken under environment %q, engine runs %q",
				cp.EnvFingerprint, fp)
		}
	}
	if cfg.Storage == nil {
		if len(cp.StorageWh) != 0 {
			return fmt.Errorf("core: checkpoint carries a storage buffer, engine runs without one")
		}
	} else {
		if len(cp.StorageWh) != 2 {
			return fmt.Errorf("core: storage configured but checkpoint holds %d element states, want 2"+
				" (was the checkpointed run started without storage?)", len(cp.StorageWh))
		}
		for i, capWh := range []float64{cfg.Storage.SC.CapacityWh, cfg.Storage.Battery.CapacityWh} {
			if wh := cp.StorageWh[i]; wh != wh || wh < 0 || wh > capWh {
				return fmt.Errorf("core: checkpoint element %d holds %g Wh outside [0, %g]", i, wh, capWh)
			}
		}
	}
	return nil
}
