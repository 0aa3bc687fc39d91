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
// correct; the CAS loop re-checks the chain to keep duplicates out.
//
// The bucket array is fixed, and the table is not allowed to fill with keys
// that never come back. Distinct planes are bounded by the quantum, but at
// the exact quantum (0) a plane is a raw float and almost never repeats: a
// 12 h exact replay would otherwise leave ~17 entries chained per bucket and
// a month-long one millions, each allocated, walked twice and never read.
// Admission therefore follows TinyLFU's doorkeeper (Einziger et al., 2017):
//
//   - While the table holds fewer than cacheBuckets entries, every miss
//     publishes its entry.
//   - The publish that brings the table to cacheBuckets entries installs a
//     direct-mapped table of doorSlots 64-bit (plane, cold) fingerprints.
//     From then on a miss is published only if its fingerprint is already
//     there — its second miss. A first miss records the fingerprint and
//     allocates nothing.
//
// Repeating keys (quantized planes, integer-percent trace utilizations)
// still get cached after one extra scan; one-shot exact planes never
// lengthen a chain. The 128 KiB doorkeeper is allocated lazily, so a
// controller that stays below capacity never pays for it; h2pserved builds
// one controller per run. Two keys sharing a slot evict each other's
// fingerprint; like a racing overwrite, that only costs one more scan.
const (
	cacheBuckets = 1 << 12
	doorBits     = 14
	doorSlots    = 1 << doorBits
)

// cacheEntry is one memoized Choose outcome in a bucket chain. key holds
// math.Float64bits of the quantized plane and cold the bits of the cold-side
// temperature; setting/power/cell are immutable after the entry is
// published. cell is the flat candidate-cell index the setting came from
// (flow-major, lookup.SlabRow.Cell): the batch decision kernel indexes the
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

// doorkeeper remembers the fingerprints of keys that missed once and were
// not admitted (see the admission rule above). Zero marks an empty slot.
type doorkeeper [doorSlots]atomic.Uint64

// decisionCache is the sharded lock-free table. The zero value is ready to
// use.
type decisionCache struct {
	buckets [cacheBuckets]atomic.Pointer[cacheEntry]
	entries atomic.Int64               // successful publishes
	door    atomic.Pointer[doorkeeper] // nil until entries reaches cacheBuckets
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

// store publishes a freshly computed outcome and reports whether this call
// published it. Once the doorkeeper is installed, a first miss only records
// its fingerprint and returns false without allocating. A published entry
// costs exactly one allocation; lost CAS races re-check the chain so a
// (plane, cold) pair is inserted at most once.
func (dc *decisionCache) store(key, cold uint64, setting Setting, power units.Watts, cell int32) bool {
	if door := dc.door.Load(); door != nil && !door.admit(key, cold) {
		return false
	}
	b := &dc.buckets[cacheBucket(key, cold)]
	var e *cacheEntry
	for {
		head := b.Load()
		for cur := head; cur != nil; cur = cur.next {
			if cur.key == key && cur.cold == cold {
				return false // another worker published it first
			}
		}
		if e == nil {
			e = &cacheEntry{key: key, cold: cold, setting: setting, power: power, cell: cell}
		}
		e.next = head
		if b.CompareAndSwap(head, e) {
			if dc.entries.Add(1) >= cacheBuckets && dc.door.Load() == nil {
				dc.door.CompareAndSwap(nil, new(doorkeeper))
			}
			return true
		}
	}
}

// admit reports whether (key, cold) missed before. On a first miss it
// records the pair's fingerprint, overwriting whatever shared its slot, and
// returns false.
func (d *doorkeeper) admit(key, cold uint64) bool {
	// A splitmix64 finalizer over both halves of the key: the slot comes
	// from the top bits, and the low bit is forced so no fingerprint is the
	// empty-slot zero.
	h := key ^ (cold * 0x9E3779B97F4A7C15)
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	h ^= h >> 31
	fp := h | 1
	slot := &d[h>>(64-doorBits)]
	if slot.Load() == fp {
		return true
	}
	slot.Store(fp)
	return false
}

// The cache's hit/call/insert counters live in telemetry.Counter instances
// (see Controller and telemetry.go in this package): the same cache-line-
// padded sharded-atomic layout the bespoke shardedCounter used to implement
// here, now shared with the rest of the engine's instrumentation. Choose
// uses the Fibonacci bucket hash as the counters' shard hint, so a given
// plane always lands on the same shard; DecideBatchCold adds a whole
// column's counts at once. Either way the totals stay exact.
