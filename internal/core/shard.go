package core

import (
	"fmt"

	"github.com/h2p-sim/h2p/internal/hydro"
)

// ShardRunner executes one contiguous range of an engine's circulations — an
// engine shard. It is the core-side primitive of the sharded execution layer
// (internal/shard): each shard builds its own Engine (own decision cache,
// fault-injector view and telemetry attachment; the immutable look-up space
// is shared through a Fleet) and steps its circulation range through the
// batched column kernel with a private BatchScratch, so shards share no
// mutable state and never rendezvous inside an interval.
//
// Circulations keep their global indices and server spans, which pins the
// fault-activation schedule — a pure function of (seed, stream, unit,
// interval) — bit-identical to the unsharded engine.
//
// A ShardRunner is single-goroutine state: exactly one shard worker steps it.
type ShardRunner struct {
	eng   *Engine
	circs []Circulation
	state workerState
	cLo   int
}

// NewShardRunner wires the circulations [circLo, circHi) of a totalServers
// datacenter to the engine. The range bounds are in circulation units (see
// Config.Circulations); an empty or out-of-bounds range is rejected.
func (e *Engine) NewShardRunner(totalServers, circLo, circHi int) (*ShardRunner, error) {
	n := e.cfg.Circulations(totalServers)
	if circLo < 0 || circHi > n || circLo >= circHi {
		return nil, fmt.Errorf("core: shard circulation range [%d,%d) outside [0,%d)", circLo, circHi, n)
	}
	return &ShardRunner{
		eng:   e,
		circs: e.circulationsRange(totalServers, circLo, circHi),
		cLo:   circLo,
	}, nil
}

// Circulations reports the shard's circulation count.
func (r *ShardRunner) Circulations() int { return len(r.circs) }

// Step runs one control interval for the shard: the whole range goes through
// one batched column call (maximal cache-probe dedup within the shard), then
// each circulation's finish. col is the full datacenter column — circulations
// read their own global server spans from it. parts and errs must have
// length Circulations(); each circulation's contribution (or error) lands in
// its range-local slot. Results are bit-identical to the same circulations
// stepped by the unsharded engine: the decision kernel is grouping-invariant
// and every circulation keeps its global fault identity.
func (r *ShardRunner) Step(col []float64, interval int, parts []CirculationInterval, errs []error) {
	if r.eng.cfg.DisableBatch {
		for k := range r.circs {
			parts[k], errs[k] = r.circs[k].Step(col, interval)
		}
		return
	}
	stepBlock(r.circs, 0, len(r.circs), col, interval, &r.state, parts, errs)
}

// SensorStates snapshots the shard's per-circulation outlet-sensor guards in
// range order — the only mutable physics state that crosses an interval
// boundary, and therefore the only per-shard payload a checkpoint needs.
func (r *ShardRunner) SensorStates() []hydro.SensorState {
	out := make([]hydro.SensorState, len(r.circs))
	for i := range r.circs {
		out[i] = r.circs[i].sensor.State()
	}
	return out
}

// RestoreSensorStates restores a SensorStates snapshot taken at the same
// interval boundary the shard resumes from.
func (r *ShardRunner) RestoreSensorStates(states []hydro.SensorState) error {
	if len(states) != len(r.circs) {
		return fmt.Errorf("core: shard has %d circulations, snapshot holds %d sensor states",
			len(r.circs), len(states))
	}
	for i := range r.circs {
		r.circs[i].sensor.SetState(states[i])
	}
	return nil
}

// CacheStats reports the shard engine's decision-cache lifetime hit and call
// counts; the sharded run loop sums these across shards for its observer.
func (r *ShardRunner) CacheStats() (hits, calls uint64) { return r.eng.controller.CacheStats() }
