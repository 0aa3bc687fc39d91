package core

import (
	"fmt"

	"github.com/h2p-sim/h2p/internal/hydro"
)

// Range is a contiguous half-open circulation range [Lo, Hi) owned by one
// engine shard. Bounds are global circulation indices (Config.Circulations).
type Range struct{ Lo, Hi int }

// Partition splits circulations [0, n) into at most shards contiguous
// ranges, as evenly as possible: every range gets n/shards circulations and
// the first n%shards ranges get one extra. A non-positive shard count
// resolves through ResolveParallelism (all CPUs); a shard count above n
// clamps to n so no range is ever empty. Partition(n, 1) is the one-shard
// layout [0, n).
func Partition(n, shards int) []Range {
	if n <= 0 {
		return nil
	}
	shards = ResolveParallelism(shards)
	if shards > n {
		shards = n
	}
	base, extra := n/shards, n%shards
	ranges := make([]Range, shards)
	lo := 0
	for s := range ranges {
		size := base
		if s < extra {
			size++
		}
		ranges[s] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return ranges
}

// ShardRunner executes one contiguous range of an engine's circulations — an
// engine shard. The run loop (RunSourceContext) builds one per Partition
// range from the run's one Engine, so every shard shares the engine's
// controller, its fault injector and its telemetry, and steps its circulation range through the batched column
// kernel with a private BatchScratch. Shards never rendezvous inside an
// interval.
//
// Circulations keep their global indices and server spans, which pins the
// fault-activation schedule — a pure function of (seed, stream, unit,
// interval) — bit-identical for every shard count.
//
// A ShardRunner is single-goroutine state: exactly one shard worker steps it.
type ShardRunner struct {
	eng   *Engine
	circs []Circulation
	state workerState
}

// NewShardRunner wires the circulations [circLo, circHi) of a totalServers
// datacenter to the engine. The range bounds are in circulation units (see
// Config.Circulations); an empty or out-of-bounds range is rejected.
func (e *Engine) NewShardRunner(totalServers, circLo, circHi int) (*ShardRunner, error) {
	n := e.cfg.Circulations(totalServers)
	if circLo < 0 || circHi > n || circLo >= circHi {
		return nil, fmt.Errorf("core: shard circulation range [%d,%d) outside [0,%d)", circLo, circHi, n)
	}
	return &ShardRunner{eng: e, circs: e.circulationsRange(totalServers, circLo, circHi)}, nil
}

// Step runs one control interval for the shard: the whole range goes through
// one batched column call (maximal cache-probe dedup within the shard), then
// each circulation's finish. col is the full datacenter column — circulations
// read their own global server spans from it. parts and errs must have one
// slot per circulation of the shard; each circulation's contribution (or error) lands in
// its range-local slot. Results do not depend on the range: the decision
// kernel is grouping-invariant and every circulation keeps its global fault
// identity.
func (r *ShardRunner) Step(col []float64, interval int, parts []CirculationInterval, errs []error) {
	stepBlock(r.circs, col, interval, &r.state, parts, errs)
}

// SensorStates snapshots the shard's per-circulation outlet-sensor guards in
// range order — the only mutable physics state that crosses an interval
// boundary.
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

// CacheStats reports the engine's lifetime decision hit and call counts
// (sched.Controller.CacheStats).
func (r *ShardRunner) CacheStats() (hits, calls uint64) { return r.eng.controller.CacheStats() }
