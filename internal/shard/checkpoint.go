package shard

import (
	"fmt"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/trace"
)

// CheckpointVersion is the sharded checkpoint schema version. It tracks the
// shard-layout envelope; the embedded merged checkpoint carries (and
// validates) its own core.CheckpointVersion.
const CheckpointVersion = 1

// Checkpoint is a sharded run frozen at an interval boundary: the engine's
// merged checkpoint plus the shard layout and each shard's private state.
//
// Merged is a complete, self-standing core.Checkpoint — its Sensors are the
// per-shard sensor snapshots concatenated in global circulation order — so an
// UNSHARDED engine can resume from Merged directly, and a sharded run resumed
// under a different shard count can be reconstructed from it by re-slicing
// Sensors along the new layout. Like the engine's, the shard checkpoint
// carries no decision-cache state (see core.Checkpoint).
type Checkpoint struct {
	Version int `json:"version"`

	// Shards and Ranges pin the layout the checkpoint was taken under.
	Shards int     `json:"shards"`
	Ranges []Range `json:"ranges"`

	// Merged is the engine-level checkpoint at the boundary, bit-identical
	// to the one the unsharded engine would have written.
	Merged core.Checkpoint `json:"merged"`

	// PerShard is each shard's private state, in shard order.
	PerShard []ShardState `json:"per_shard"`
}

// ShardState is one shard's private checkpoint payload.
type ShardState struct {
	// Range is the shard's circulation range (redundant with the top-level
	// Ranges, kept per-record so a single shard's state is self-describing).
	Range Range `json:"range"`
	// Sensors holds the shard's per-circulation outlet-sensor snapshots in
	// range order — the only mutable physics state a shard carries across
	// an interval boundary.
	Sensors []hydro.SensorState `json:"sensors"`
}

// LayoutError reports a sharded checkpoint whose shard layout does not match
// the layout of the run trying to resume it. It is a typed error so callers
// can distinguish "re-run with -shards N" from data corruption; use
// errors.As.
type LayoutError struct {
	// WantShards/WantRanges describe the resuming run's layout.
	WantShards int
	WantRanges []Range
	// GotShards/GotRanges describe the checkpoint's layout.
	GotShards int
	GotRanges []Range
	// Detail pinpoints the first mismatch.
	Detail string
}

// Error implements error.
func (e *LayoutError) Error() string {
	return fmt.Sprintf("shard: checkpoint layout mismatch: %s (checkpoint has %d shards, resume wants %d)",
		e.Detail, e.GotShards, e.WantShards)
}

// validateFor checks the checkpoint against the source shape, engine
// configuration and shard layout it is about to resume. Layout mismatches
// come back as *LayoutError; everything the unsharded engine would reject
// (trace identity, scheme, interval bounds, series retention) is delegated
// to core.Checkpoint.ValidateFor on the merged record.
func (cp *Checkpoint) validateFor(m trace.Meta, cfg core.Config, ranges []Range, keepSeries bool) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("shard: checkpoint version %d, this layer speaks %d", cp.Version, CheckpointVersion)
	}
	circs := 0
	for _, r := range ranges {
		circs += r.Circulations()
	}
	if err := cp.Merged.ValidateFor(m, cfg, circs, keepSeries); err != nil {
		return err
	}
	mismatch := func(detail string) error {
		return &LayoutError{
			WantShards: len(ranges), WantRanges: ranges,
			GotShards: cp.Shards, GotRanges: cp.Ranges,
			Detail: detail,
		}
	}
	if cp.Shards != len(ranges) || len(cp.Ranges) != cp.Shards || len(cp.PerShard) != cp.Shards {
		return mismatch(fmt.Sprintf("shard count %d vs %d", cp.Shards, len(ranges)))
	}
	for s, r := range ranges {
		if cp.Ranges[s] != r {
			return mismatch(fmt.Sprintf("shard %d covers %v, resume partitions it as %v", s, cp.Ranges[s], r))
		}
		ps := cp.PerShard[s]
		if ps.Range != r {
			return mismatch(fmt.Sprintf("shard %d record labeled %v under layout range %v", s, ps.Range, r))
		}
		if len(ps.Sensors) != r.Circulations() {
			return mismatch(fmt.Sprintf("shard %d holds %d sensor snapshots for range %v", s, len(ps.Sensors), r))
		}
	}
	return nil
}
