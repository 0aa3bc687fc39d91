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

// len counts the published entries by walking every chain.
func (dc *decisionCache) len() int {
	n := 0
	for b := range dc.buckets {
		for e := dc.buckets[b].Load(); e != nil; e = e.next {
			n++
		}
	}
	return n
}

// fillController brings c's cache to capacity with cacheBuckets distinct
// exact planes in [0, 0.25), so the doorkeeper is installed and every later
// plane in [0.5, 1] is a fresh key.
func fillController(t testing.TB, c *Controller) {
	t.Helper()
	for i := 0; i < cacheBuckets; i++ {
		if _, _, err := c.Choose(float64(i)/(4*cacheBuckets), c.ColdSource); err != nil {
			t.Fatal(err)
		}
	}
	if c.cache.door.Load() == nil {
		t.Fatalf("doorkeeper not installed after %d publishes", cacheBuckets)
	}
}

// TestDecisionCacheAdmitsBelowCapacity pins the first half of the admission
// rule: until the table holds cacheBuckets entries every store publishes,
// and the doorkeeper is installed by the publish that reaches capacity.
func TestDecisionCacheAdmitsBelowCapacity(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	for i := 0; i < cacheBuckets; i++ {
		if dc.door.Load() != nil {
			t.Fatalf("doorkeeper installed after %d entries", i)
		}
		if !dc.store(math.Float64bits(float64(i)/cacheBuckets), cold, Setting{}, 0, int32(i)) {
			t.Fatalf("store %d below capacity was not published", i)
		}
	}
	if dc.door.Load() == nil {
		t.Fatal("doorkeeper not installed at capacity")
	}
	if got := dc.len(); got != cacheBuckets {
		t.Errorf("table holds %d entries, want %d", got, cacheBuckets)
	}
}

// TestChooseAdmitsOnSecondMissPastCapacity pins exact counts past capacity:
// a fresh plane misses without being published, misses again and is
// published, then hits — with the same decision every time.
func TestChooseAdmitsOnSecondMissPastCapacity(t *testing.T) {
	c := newController(t)
	fillController(t, c)
	const u = 0.625 + 1e-9
	want, wantP, err := c.Choose(u, c.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	hits0, calls0 := c.CacheStats()
	ins0 := c.inserts.Value()
	if _, _, _, ok := c.cache.load(math.Float64bits(u), math.Float64bits(20)); ok {
		t.Fatal("a first miss past capacity was published")
	}
	for k, step := range []struct{ hits, inserts uint64 }{
		{0, 1}, // second miss: admitted
		{1, 1}, // then a hit
		{2, 1},
	} {
		s, p, err := c.Choose(u, c.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		if s != want || p != wantP {
			t.Fatalf("call %d: decision %+v/%v, want %+v/%v", k+2, s, p, want, wantP)
		}
		hits, calls := c.CacheStats()
		if calls-calls0 != uint64(k+1) || hits-hits0 != step.hits || c.inserts.Value()-ins0 != step.inserts {
			t.Fatalf("after call %d: hits +%d calls +%d inserts +%d, want +%d/+%d/+%d",
				k+2, hits-hits0, calls-calls0, c.inserts.Value()-ins0, step.hits, k+1, step.inserts)
		}
	}
}

// TestChooseOneShotPlanesStayBounded drives 200,000 distinct exact planes —
// a long exact-quantum replay's key stream — through Choose: past capacity
// none of them repeats, so none may be published. Under the race detector
// the stream is cut to 20,000 planes, still five times the capacity.
func TestChooseOneShotPlanesStayBounded(t *testing.T) {
	c := newController(t)
	planes := 200_000
	if raceEnabled {
		planes = 20_000
	}
	for i := 0; i < planes; i++ {
		if _, _, err := c.Choose(float64(i)/float64(planes), c.ColdSource); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.cache.len(); got > cacheBuckets+8 {
		t.Errorf("%d one-shot planes left %d entries, want <= %d", planes, got, cacheBuckets+8)
	}
	if got, ins := c.cache.entries.Load(), c.inserts.Value(); uint64(got) != ins || int(got) != c.cache.len() {
		t.Errorf("entry count %d, inserts %d, chain length %d disagree", got, ins, c.cache.len())
	}
}

// TestDecisionCacheConcurrentAdmission hammers the admission path from many
// goroutines (run under -race by make check): past capacity, overlapping
// keys race to record fingerprints and publish. Every published value must
// be the key's, no pair may be published twice, and the entry count must
// equal both the chain length and the number of stores that reported a
// publish.
func TestDecisionCacheConcurrentAdmission(t *testing.T) {
	var dc decisionCache
	cold := math.Float64bits(20)
	for i := 0; i < cacheBuckets; i++ {
		dc.store(math.Float64bits(float64(i)/(4*cacheBuckets)), cold, Setting{}, 0, 0)
	}
	const goroutines = 8
	const keys = 1000
	var wg sync.WaitGroup
	counts := make([]int, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < keys; i++ {
					// Shared keys race on fingerprints and chains; the
					// goroutine's own one-shot keys churn the doorkeeper.
					shared := math.Float64bits(0.5 + float64(i)/(4*keys))
					own := math.Float64bits(0.75 + float64(g*3*keys+pass*keys+i)/(8*goroutines*3*keys))
					for _, k := range []uint64{shared, own} {
						if s, _, _, ok := dc.load(k, cold); ok {
							if s.Flow != units.LitersPerHour(k%997) {
								t.Errorf("g%d: key %x corrupted: %+v", g, k, s)
								return
							}
							continue
						}
						if dc.store(k, cold, Setting{Flow: units.LitersPerHour(k % 997)}, 0, 0) {
							counts[g]++
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := cacheBuckets
	for _, n := range counts {
		total += n
	}
	if total == cacheBuckets {
		t.Error("no key was admitted past capacity")
	}
	if got := dc.len(); got != total || int(dc.entries.Load()) != total {
		t.Errorf("chain length %d, entry count %d, reported publishes %d disagree", got, dc.entries.Load(), total)
	}
	for b := range dc.buckets {
		seen := map[[2]uint64]bool{}
		for e := dc.buckets[b].Load(); e != nil; e = e.next {
			if seen[[2]uint64{e.key, e.cold}] {
				t.Fatalf("key %x published twice", e.key)
			}
			seen[[2]uint64{e.key, e.cold}] = true
		}
	}
}
