package sched

import (
	"sync/atomic"

	"github.com/h2p-sim/h2p/internal/units"
)

// The decision cache memoizes Choose outcomes keyed on the float bits of the
// (quantized) plane utilization plus the float bits of the TEG cold-side
// temperature the decision was made against. Every circulation worker of the
// parallel engine consults one shared controller each control interval, so
// the cache is built for a read-mostly regime: after warmup virtually every
// Choose is a hit, and the seed's single mutex around a map serialized all
// workers on it.
//
// The replacement is a fixed-size hash table sharded into cacheBuckets
// independent buckets, each the head of an immutable chain of cacheEntry
// nodes published through an atomic.Pointer:
//
//   - Reads (the hot path) atomically load the bucket head and walk the
//     chain — no mutex, no allocation, no write to shared memory.
//   - Writes (cache misses only) allocate one entry and CAS it onto the
//     bucket head, retrying on contention. Entries are immutable after
//     publication, so readers never observe a partially written value.
//
// Settings are a pure function of (plane, cold side), so two workers racing
// to fill the same key compute identical values and either insert is
// correct; the CAS loop re-checks the chain to keep duplicates out. The
// table never grows: distinct planes are bounded by the quantum (or by the
// trace's distinct utilization means) and distinct colds by the environment
// source's quantization grid, and an overfull bucket only degrades into a
// longer — still correct — chain walk.
const cacheBuckets = 1 << 12

// cacheEntry is one memoized Choose outcome in a bucket chain. key holds
// math.Float64bits of the quantized plane and cold the bits of the cold-side
// temperature; setting/power/cell are immutable after the entry is
// published. cell is the flat candidate-cell index the setting came from
// (lookup.VisitPlane numbering): the batch decision kernel indexes the
// flattened stencils with it, so a cache hit skips the setting-to-cell
// resolution along with the scan.
type cacheEntry struct {
	key     uint64
	cold    uint64
	setting Setting
	power   units.Watts
	cell    int32
	next    *cacheEntry
}

// decisionCache is the sharded lock-free table. The zero value is ready to
// use.
type decisionCache struct {
	buckets [cacheBuckets]atomic.Pointer[cacheEntry]
}

// bucketOf spreads the 64 key bits over the buckets with a Fibonacci hash:
// quantized planes differ only in a few low mantissa bits, which a plain
// mask would collapse onto a handful of buckets. It doubles as the telemetry
// counters' shard hint, keyed on the plane alone so a given plane always
// lands on the same shard.
func bucketOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - 12)
}

// cacheBucket picks the bucket for a (plane, cold) pair: the cold bits are
// folded in through a second Fibonacci round so a seasonal run's many colds
// spread over the table instead of chaining behind their shared plane.
func cacheBucket(key, cold uint64) uint64 {
	return ((key ^ (cold * 0x9E3779B97F4A7C15)) * 0x9E3779B97F4A7C15) >> (64 - 12)
}

// load returns the memoized outcome for the (plane, cold) pair, if any.
// Allocation-free and mutex-free: one atomic load plus a chain walk over
// immutable entries.
func (dc *decisionCache) load(key, cold uint64) (Setting, units.Watts, int32, bool) {
	for e := dc.buckets[cacheBucket(key, cold)].Load(); e != nil; e = e.next {
		if e.key == key && e.cold == cold {
			return e.setting, e.power, e.cell, true
		}
	}
	return Setting{}, 0, 0, false
}

// store publishes a freshly computed outcome. Exactly one allocation; lost
// CAS races re-check the chain so a (plane, cold) pair is inserted at most
// once.
func (dc *decisionCache) store(key, cold uint64, setting Setting, power units.Watts, cell int32) {
	b := &dc.buckets[cacheBucket(key, cold)]
	e := &cacheEntry{key: key, cold: cold, setting: setting, power: power, cell: cell}
	for {
		head := b.Load()
		for cur := head; cur != nil; cur = cur.next {
			if cur.key == key && cur.cold == cold {
				return // another worker published it first
			}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			return
		}
	}
}

// The cache's hit/call/insert counters live in telemetry.Counter instances
// (see Controller and telemetry.go in this package): the same cache-line-
// padded sharded-atomic layout the bespoke shardedCounter used to implement
// here, now shared with the rest of the engine's instrumentation. The
// Fibonacci bucket hash doubles as the counters' shard hint, so a given
// plane always lands on the same shard and totals stay exact.
