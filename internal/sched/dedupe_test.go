package sched

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/units"
)

// The decision path's only memo is DecideBatchCold's per-call intern table:
// each distinct quantized plane of a column is resolved once, and a group
// whose plane an earlier group of the same call resolved counts as a hit.
// These tests pin the table, the counter rule and the absence of any state
// that outlives a call.

// internAll resets bs for n groups and interns keys, returning their
// indices.
func internAll(bs *BatchScratch, n int, keys []uint64) []int32 {
	bs.growGroups(n)
	idx := make([]int32, len(keys))
	for i, k := range keys {
		idx[i] = bs.intern(k)
	}
	return idx
}

// TestDecisionCacheRoundTrip interns 64 distinct keys, then each again: a
// key's second intern returns its first index, and uniq holds every key at
// its index in order of first appearance.
func TestDecisionCacheRoundTrip(t *testing.T) {
	var bs BatchScratch
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = math.Float64bits(float64(i) / 64)
	}
	first := internAll(&bs, 2*len(keys), keys)
	for i, k := range keys {
		if first[i] != int32(i) || bs.uniq[i] != k {
			t.Fatalf("key %d: index %d, uniq %x; want %d, %x", i, first[i], bs.uniq[i], i, k)
		}
		if j := bs.intern(k); j != first[i] {
			t.Fatalf("key %d: re-intern returned %d, want %d", i, j, first[i])
		}
	}
	if len(bs.uniq) != len(keys) {
		t.Errorf("uniq holds %d keys, want %d", len(bs.uniq), len(keys))
	}
	// Resizing for a new call empties the table: a key interned at index 5
	// before starts again at 0.
	if idx := internAll(&bs, 4, keys[5:6]); idx[0] != 0 || len(bs.uniq) != 1 {
		t.Errorf("after a reset the key interned at %d with %d keys, want 0 with 1", idx[0], len(bs.uniq))
	}
}

// TestDecisionCacheCollisionChain forces two distinct keys into the same
// intern slot and checks the linear probe keeps both, each at its own
// index, in either order of arrival.
func TestDecisionCacheCollisionChain(t *testing.T) {
	var bs BatchScratch
	bs.growGroups(8) // 16 slots
	slot := func(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> bs.shift }
	base := math.Float64bits(0.5)
	var collider uint64
	for i := uint64(1); ; i++ {
		if slot(base+i) == slot(base) {
			collider = base + i
			break
		}
	}
	for _, keys := range [][]uint64{{base, collider}, {collider, base}} {
		idx := internAll(&bs, 8, append(keys, keys...))
		if idx[0] != 0 || idx[1] != 1 || idx[2] != 0 || idx[3] != 1 {
			t.Errorf("colliding keys %x interned at %v, want [0 1 0 1]", keys, idx)
		}
	}
}

// TestDecisionCacheColdSeparation pins that no decision outlives its call:
// one controller deciding the same column at cold sides 20, 14 and 20 again
// returns, each time, exactly what a fresh controller returns at that cold
// side.
func TestDecisionCacheColdSeparation(t *testing.T) {
	c := newController(t)
	col, ranges := batchColumn(19, 8, 17)
	var bs BatchScratch
	for _, cold := range []float64{20, 14, 20} {
		got := decideColumn(t, c, col, ranges, LoadBalance, cold, &bs)
		want := decideColumn(t, newController(t), col, ranges, LoadBalance, cold, &BatchScratch{})
		for g := range ranges {
			if !decisionsEqual(got[g], want[g]) {
				t.Fatalf("cold %v group %d: reused controller %+v, fresh %+v", cold, g, got[g], want[g])
			}
		}
	}
}

// TestDecisionCacheDuplicateStore checks a plane repeated across a column's
// groups is resolved once: the column interns one key, the scan kernel
// visits one plane's rows, and every group after the first is a hit.
func TestDecisionCacheDuplicateStore(t *testing.T) {
	c := newController(t)
	reg := telemetry.New()
	c.AttachTelemetry(reg)
	col := []float64{0.3, 0.7, 0.7, 0.1, 0.7, 0.7, 0.2, 0.7}
	ranges := []Range{{0, 2}, {2, 3}, {3, 5}, {5, 6}, {6, 8}}
	var bs BatchScratch
	out := decideColumn(t, c, col, ranges, Original, 20, &bs)
	if len(bs.uniq) != 1 {
		t.Fatalf("%d distinct keys interned, want 1", len(bs.uniq))
	}
	for g := range out {
		if out[g].Setting != out[0].Setting {
			t.Fatalf("group %d setting %+v, group 0 %+v", g, out[g].Setting, out[0].Setting)
		}
	}
	if hits, calls := c.CacheStats(); hits != 4 || calls != 5 {
		t.Errorf("CacheStats = %d hits of %d calls, want 4 of 5", hits, calls)
	}
	_, _, _, visited, err := c.resolvePlane(c.Space.SegmentIndex(c.TSafe-c.Band, c.TSafe+c.Band), 0.7, 20, new([]lookup.SlabRow))
	if err != nil {
		t.Fatal(err)
	}
	if evals := reg.Counter("h2p_decision_powercurve_evals_total", "").Value(); evals != uint64(visited) {
		t.Errorf("scan kernel visited %d rows, want one plane's %d", evals, visited)
	}
}

// TestDecisionCacheConcurrentStores decides columns from many goroutines on
// one controller, each with its own scratch (run under -race by make
// check): every decision must match a serial pass, and the counters must sum
// the goroutines' calls exactly.
func TestDecisionCacheConcurrentStores(t *testing.T) {
	c := newController(t)
	c.CacheQuantum = 1.0 / 128
	ref := newController(t)
	ref.CacheQuantum = c.CacheQuantum
	const goroutines = 8
	cols := make([][]float64, goroutines)
	rngs := make([][]Range, goroutines)
	want := make([][]Decision, goroutines)
	var wantHits, wantCalls uint64
	for g := range cols {
		cols[g], rngs[g] = batchColumn(23, 10, int64(g))
		want[g] = decideColumn(t, ref, cols[g], rngs[g], LoadBalance, 20, &BatchScratch{})
		h, n := expectedCounts(cols[g], rngs[g], LoadBalance, c.CacheQuantum)
		wantHits, wantCalls = wantHits+h, wantCalls+n
	}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := range goroutines {
		go func() {
			defer wg.Done()
			var bs BatchScratch
			scratches := newScratches(len(rngs[g]))
			out := make([]Decision, len(rngs[g]))
			for round := range 20 {
				if err := c.DecideBatchCold(cols[g], rngs[g], LoadBalance, 20, &bs, scratches, out); err != nil {
					t.Error(err)
					return
				}
				for k := range out {
					if !decisionsEqual(out[k], want[g][k]) {
						t.Errorf("goroutine %d round %d group %d: concurrent %+v, serial %+v", g, round, k, out[k], want[g][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if hits, calls := c.CacheStats(); hits != 20*wantHits || calls != 20*wantCalls {
		t.Errorf("CacheStats = %d hits of %d calls, want %d of %d", hits, calls, 20*wantHits, 20*wantCalls)
	}
}

// TestBatchHitsCountRepeatedPlanes pins the counter rule call by call: a
// DecideBatchCold call adds one call per group and groups minus distinct
// planes to the hits, with the distinct count taken here from a map of the
// groups' quantized planes. Choose adds one call and never a hit.
func TestBatchHitsCountRepeatedPlanes(t *testing.T) {
	for _, quantum := range []float64{0, 1.0 / 512, 1.0 / 16} {
		for _, scheme := range []Scheme{Original, LoadBalance} {
			c := newController(t)
			c.CacheQuantum = quantum
			var bs BatchScratch
			for seed := range int64(6) {
				col, ranges := batchColumn(41, 12, seed)
				h0, c0 := c.CacheStats()
				decideColumn(t, c, col, ranges, scheme, 20, &bs)
				h1, c1 := c.CacheStats()
				wantHits, wantCalls := expectedCounts(col, ranges, scheme, quantum)
				if h1-h0 != wantHits || c1-c0 != wantCalls {
					t.Fatalf("q=%v %s seed %d: call added %d hits of %d calls, want %d of %d",
						quantum, scheme, seed, h1-h0, c1-c0, wantHits, wantCalls)
				}
			}
			h0, c0 := c.CacheStats()
			for range 3 {
				if _, _, err := c.Choose(0.5, 20); err != nil {
					t.Fatal(err)
				}
			}
			if h1, c1 := c.CacheStats(); h1 != h0 || c1-c0 != 3 {
				t.Errorf("q=%v %s: three Choose calls added %d hits of %d calls, want 0 of 3", quantum, scheme, h1-h0, c1-c0)
			}
		}
	}
}

// TestChooseOneShotPlanesStayBounded drives 200,000 distinct exact planes —
// a long exact-quantum replay's plane stream — through Choose: the whole
// stream allocates nothing, so the controller retains nothing of it, and
// every plane counts one call and no hit. Under the race detector the
// stream is cut to 20,000 planes.
func TestChooseOneShotPlanesStayBounded(t *testing.T) {
	c := newController(t)
	planes := 200_000
	if raceEnabled {
		planes = 20_000
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := range planes {
			if _, _, err := c.Choose(float64(i)/float64(planes), c.ColdSource); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d one-shot planes allocated %v times, want 0", planes, allocs)
	}
	// AllocsPerRun makes one warm-up pass before the measured one.
	if hits, calls := c.CacheStats(); hits != 0 || calls != uint64(2*planes) {
		t.Errorf("CacheStats = %d hits of %d calls, want 0 of %d", hits, calls, 2*planes)
	}
}

// TestControllerStaysSmall pins the controller's footprint: h2pserved
// builds one per run, so it holds no per-plane state inline.
func TestControllerStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Controller{}); size >= 1024 {
		t.Errorf("sched.Controller is %d bytes, want under 1 KiB", size)
	}
}

// TestShardedCounter checks the decision counters — telemetry.Counter
// instances sharded by the plane hash — sum exactly under concurrent
// hinted increments.
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

// TestBucketOfSpreadsQuantizedPlanes guards the shard-hint hash: the 513
// distinct planes of a 1/512 quantum must not pile onto a handful of hint
// values (a plain mask of the float bits would).
func TestBucketOfSpreadsQuantizedPlanes(t *testing.T) {
	used := make(map[uint64]int)
	for i := 0; i <= 512; i++ {
		u := math.Round(float64(i)/512*512) / 512
		used[bucketOf(math.Float64bits(u))]++
	}
	if len(used) < 256 {
		t.Errorf("513 quantized planes landed on only %d hint values", len(used))
	}
	worst := 0
	for _, n := range used {
		if n > worst {
			worst = n
		}
	}
	if worst > 8 {
		t.Errorf("worst hint value holds %d planes, want <= 8", worst)
	}
}

// expectedCounts is the counter rule's referee for a column every group of
// which decides: calls is the group count, hits the groups whose quantized
// plane an earlier group already had. It reduces and quantizes on its own,
// without the intern table.
func expectedCounts(col []float64, ranges []Range, scheme Scheme, quantum float64) (hits, calls uint64) {
	seen := make(map[uint64]bool)
	for _, r := range ranges {
		planeU, err := PlaneUtilization(col[r.Lo:r.Hi], scheme)
		if err != nil {
			panic(err)
		}
		if quantum > 0 {
			planeU = math.Min(1, math.Max(0, math.Round(planeU/quantum)*quantum))
		}
		key := math.Float64bits(planeU)
		if seen[key] {
			hits++
		}
		seen[key] = true
		calls++
	}
	return hits, calls
}

// newScratches returns n fresh per-group scratches.
func newScratches(n int) []*Scratch {
	s := make([]*Scratch, n)
	for g := range s {
		s[g] = &Scratch{}
	}
	return s
}

// decideColumn runs one DecideBatchCold call and returns deep copies of its
// decisions.
func decideColumn(t testing.TB, c *Controller, col []float64, ranges []Range, scheme Scheme, cold float64, bs *BatchScratch) []Decision {
	t.Helper()
	out := make([]Decision, len(ranges))
	if err := c.DecideBatchCold(col, ranges, scheme, units.Celsius(cold), bs, newScratches(len(ranges)), out); err != nil {
		t.Fatal(err)
	}
	for g := range out {
		out[g] = cloneDecision(out[g])
	}
	return out
}
