package sched

import (
	"math"
	"sync"
	"testing"

	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

// TestDecisionCacheRoundTrip exercises the lock-free table directly: store
// then load, including keys that collide into one bucket.
func TestDecisionCacheRoundTrip(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	if _, _, _, ok := dc.load(42, cold); ok {
		t.Fatal("empty cache should miss")
	}
	keys := make([]uint64, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, math.Float64bits(float64(i)/64))
	}
	for i, k := range keys {
		dc.store(k, cold, Setting{Flow: units.LitersPerHour(i), Inlet: units.Celsius(i)}, units.Watts(i), int32(i))
	}
	for i, k := range keys {
		s, p, cell, ok := dc.load(k, cold)
		if !ok {
			t.Fatalf("key %d lost", i)
		}
		if s.Flow != units.LitersPerHour(i) || p != units.Watts(i) || cell != int32(i) {
			t.Fatalf("key %d: wrong value %+v/%v/%d", i, s, p, cell)
		}
	}
}

// TestDecisionCacheCollisionChain forces two distinct keys into the same
// bucket and checks both survive on the chain.
func TestDecisionCacheCollisionChain(t *testing.T) {
	cold := math.Float64bits(20)
	base := math.Float64bits(0.5)
	target := cacheBucket(base, cold)
	var collider uint64
	found := false
	for i := uint64(1); i < 1<<20; i++ {
		k := base + i
		if cacheBucket(k, cold) == target {
			collider, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no colliding key found in 2^20 probes")
	}
	var dc decisionCache
	dc.store(base, cold, Setting{Flow: 1}, 1, 1)
	dc.store(collider, cold, Setting{Flow: 2}, 2, 2)
	if s, _, _, ok := dc.load(base, cold); !ok || s.Flow != 1 {
		t.Errorf("base key lost after collision: %+v %v", s, ok)
	}
	if s, _, _, ok := dc.load(collider, cold); !ok || s.Flow != 2 {
		t.Errorf("colliding key lost: %+v %v", s, ok)
	}
}

// TestDecisionCacheColdSeparation pins the environment seam: the same plane
// cached against two cold sides holds two independent entries, so a seasonal
// run can never serve a decision made under a different cold-side
// temperature.
func TestDecisionCacheColdSeparation(t *testing.T) {
	var dc decisionCache
	key := math.Float64bits(0.5)
	c20 := math.Float64bits(20)
	c14 := math.Float64bits(14)
	dc.store(key, c20, Setting{Flow: 1}, 1, 1)
	if _, _, _, ok := dc.load(key, c14); ok {
		t.Fatal("entry stored at cold=20 served for cold=14")
	}
	dc.store(key, c14, Setting{Flow: 2}, 2, 2)
	if s, _, _, ok := dc.load(key, c20); !ok || s.Flow != 1 {
		t.Errorf("cold=20 entry lost: %+v %v", s, ok)
	}
	if s, _, _, ok := dc.load(key, c14); !ok || s.Flow != 2 {
		t.Errorf("cold=14 entry lost: %+v %v", s, ok)
	}
}

// TestDecisionCacheDuplicateStore verifies a key is inserted at most once:
// losing racers re-check the chain instead of stacking duplicates.
func TestDecisionCacheDuplicateStore(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	key := math.Float64bits(0.25)
	dc.store(key, cold, Setting{Flow: 7}, 7, 7)
	dc.store(key, cold, Setting{Flow: 8}, 8, 8) // must be ignored: values are pure functions of the key
	n := 0
	for e := dc.buckets[cacheBucket(key, cold)].Load(); e != nil; e = e.next {
		if e.key == key && e.cold == cold {
			n++
		}
	}
	if n != 1 {
		t.Errorf("key appears %d times on the chain, want 1", n)
	}
	if s, _, _, _ := dc.load(key, cold); s.Flow != 7 {
		t.Errorf("first published value must win, got flow %v", s.Flow)
	}
}

// TestDecisionCacheConcurrentStores hammers one cache from many goroutines
// (run under -race by make check): every stored key must be readable
// afterwards with its first-published value intact.
func TestDecisionCacheConcurrentStores(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Overlapping key ranges force CAS races on shared buckets.
				k := math.Float64bits(float64(i%257) / 257)
				dc.store(k, cold, Setting{Flow: units.LitersPerHour(i % 257)}, units.Watts(i%257), int32(i%257))
				if s, _, _, ok := dc.load(k, cold); !ok || int(s.Flow) != i%257 {
					t.Errorf("g%d: key %d corrupted: %+v %v", g, i%257, s, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedCounter checks the cache's counters — now telemetry.Counter
// instances sharded by the bucket hash, replacing the bespoke
// shardedCounter — still sum exactly under concurrent hinted increments.
func TestShardedCounter(t *testing.T) {
	sc := telemetry.NewCounter("test_total")
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sc.AddHint(bucketOf(uint64(g*perG+i)), 1)
			}
		}(g)
	}
	wg.Wait()
	if got := sc.Value(); got != goroutines*perG {
		t.Errorf("counter sum = %d, want %d", got, goroutines*perG)
	}
}

// TestBucketOfSpreadsQuantizedPlanes guards the hash choice: the 513
// distinct planes of a 1/512 quantum must not pile into a handful of
// buckets (a plain mask of the float bits would).
func TestBucketOfSpreadsQuantizedPlanes(t *testing.T) {
	used := make(map[uint64]int)
	for i := 0; i <= 512; i++ {
		u := math.Round(float64(i)/512*512) / 512
		used[bucketOf(math.Float64bits(u))]++
	}
	if len(used) < 256 {
		t.Errorf("513 quantized planes landed in only %d buckets", len(used))
	}
	worst := 0
	for _, n := range used {
		if n > worst {
			worst = n
		}
	}
	if worst > 8 {
		t.Errorf("worst bucket holds %d planes, want <= 8", worst)
	}
}
