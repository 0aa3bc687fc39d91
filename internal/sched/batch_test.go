package sched

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/units"
)

// batchColumn builds a deterministic utilization column partitioned into
// groups of varying width, mixing smooth, spiky and boundary values so the
// plane reductions cover distinct and repeated plane keys.
func batchColumn(groups, maxWidth int, seed int64) ([]float64, []Range) {
	rng := rand.New(rand.NewSource(seed))
	var col []float64
	ranges := make([]Range, groups)
	for g := range ranges {
		n := 1 + rng.Intn(maxWidth)
		lo := len(col)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				col = append(col, rng.Float64())
			case 1:
				col = append(col, float64(rng.Intn(21))*0.05)
			case 2:
				col = append(col, 0)
			default:
				col = append(col, 1)
			}
		}
		ranges[g] = Range{Lo: lo, Hi: len(col)}
	}
	return col, ranges
}

// decisionsEqual compares two decisions bit-for-bit, including the aliased
// per-server slices.
func decisionsEqual(a, b Decision) bool {
	if a.Scheme != b.Scheme || a.PlaneU != b.PlaneU || a.Setting != b.Setting ||
		a.MaxCPUTemp != b.MaxCPUTemp || a.PlaneOutlet != b.PlaneOutlet {
		return false
	}
	return reflect.DeepEqual(a.PerServerPower, b.PerServerPower) &&
		reflect.DeepEqual(a.PerServerCPUPower, b.PerServerCPUPower)
}

// cloneDecision deep-copies a decision out of its scratch aliases.
func cloneDecision(d Decision) Decision {
	d.PerServerPower = append([]units.Watts(nil), d.PerServerPower...)
	d.PerServerCPUPower = append([]units.Watts(nil), d.PerServerCPUPower...)
	return d
}

// TestDecideBatchMatchesSerial is the sched-layer bit-identity pin: for
// every scheme and decision quantum, DecideBatchCold over a multi-group
// column must reproduce the scalar referee's per-group outcomes exactly —
// on a fresh scratch and on a reused one alike.
func TestDecideBatchMatchesSerial(t *testing.T) {
	for _, quantum := range []float64{0, 1.0 / 512} {
		for _, scheme := range []Scheme{Original, LoadBalance} {
			c := newController(t)
			c.CacheQuantum = quantum
			ref := newController(t)
			ref.CacheQuantum = quantum
			col, ranges := batchColumn(37, 24, 7)
			var bs BatchScratch
			scratches := make([]*Scratch, len(ranges))
			for g := range scratches {
				scratches[g] = &Scratch{}
			}
			out := make([]Decision, len(ranges))
			for round := 0; round < 2; round++ { // fresh then reused scratch
				if err := c.DecideBatchCold(col, ranges, scheme, c.ColdSource, &bs, scratches, out); err != nil {
					t.Fatalf("q=%v %s round %d: DecideBatchCold: %v", quantum, scheme, round, err)
				}
				for g, r := range ranges {
					want, err := ref.decideSerial(col[r.Lo:r.Hi], scheme, ref.ColdSource)
					if err != nil {
						t.Fatalf("q=%v %s group %d: referee: %v", quantum, scheme, g, err)
					}
					if !decisionsEqual(out[g], want) {
						t.Fatalf("q=%v %s round %d group %d: batch %+v != serial %+v",
							quantum, scheme, round, g, out[g], want)
					}
				}
			}
		}
	}
}

// TestDecideBatchCountersMatchSerial pins the decision accounting: a batch
// over G valid groups reports exactly the G calls per-group decisions
// report, and groups minus distinct planes as hits where the per-group
// decisions, each a call of its own, report none.
func TestDecideBatchCountersMatchSerial(t *testing.T) {
	c := newController(t)
	ref := newController(t)
	col, ranges := batchColumn(29, 16, 11)
	var bs BatchScratch
	decideColumn(t, c, col, ranges, Original, 20, &bs)
	for _, r := range ranges {
		if _, err := ref.decideSerial(col[r.Lo:r.Hi], Original, ref.ColdSource); err != nil {
			t.Fatal(err)
		}
	}
	bh, bc := c.CacheStats()
	sh, sc := ref.CacheStats()
	wantHits, _ := expectedCounts(col, ranges, Original, 0)
	if bc != sc || bh != wantHits || sh != 0 || wantHits == 0 {
		t.Errorf("batch (hits=%d calls=%d), serial (hits=%d calls=%d); want calls equal, batch hits %d > 0, serial hits 0",
			bh, bc, sh, sc, wantHits)
	}
}

// TestDecideBatchCountersMatchSerialPastCapacity runs the accounting pin
// on a column wider than the retired decision table: single-server groups
// over more distinct exact planes than its 4,096 buckets, each drawn about
// twice. Decisions match the serial referee and each call's counts follow
// the rule — nothing the first call resolved is a hit in the second.
func TestDecideBatchCountersMatchSerialPastCapacity(t *testing.T) {
	c := newController(t)
	ref := newController(t)
	rng := rand.New(rand.NewSource(15))
	planes := make([]float64, 5120)
	for i := range planes {
		planes[i] = rng.Float64()
	}
	col := make([]float64, 2*len(planes))
	ranges := make([]Range, len(col))
	for g := range col {
		col[g] = planes[rng.Intn(len(planes))]
		ranges[g] = Range{Lo: g, Hi: g + 1}
	}
	wantHits, wantCalls := expectedCounts(col, ranges, Original, 0)
	var bs BatchScratch
	for round := 1; round <= 2; round++ {
		out := decideColumn(t, c, col, ranges, Original, 20, &bs)
		for g, r := range ranges {
			want, err := ref.decideSerial(col[r.Lo:r.Hi], Original, ref.ColdSource)
			if err != nil {
				t.Fatal(err)
			}
			if !decisionsEqual(out[g], want) {
				t.Fatalf("round %d group %d: batch %+v != serial %+v", round, g, out[g], want)
			}
		}
		bh, bc := c.CacheStats()
		_, sc := ref.CacheStats()
		if bh != uint64(round)*wantHits || bc != uint64(round)*wantCalls || bc != sc {
			t.Errorf("round %d: batch counts (hits=%d calls=%d), serial calls %d; want %d hits of %d calls per round",
				round, bh, bc, sc, wantHits, wantCalls)
		}
	}
}

// TestDecideBatchCountersMatchSerialOnFailure pins the counter flush on the
// error returns: when a column fails mid-way, the calls must be exactly
// those the serial path counts over the groups it reaches before (and
// including) the failing one, and the hits those groups' repeated planes.
// Two failures: a group whose plane lies outside [0,1] (rejected before it
// counts) and a NaN plane whose scan finds no safe setting (counted as a
// call).
func TestDecideBatchCountersMatchSerialOnFailure(t *testing.T) {
	col, ranges := batchColumn(24, 6, 21)
	const fail = 17
	cases := []struct {
		name    string
		scheme  Scheme
		bad     float64
		counted int // groups the counters see: those before fail, plus fail if its plane reaches the scan
	}{
		{"plane-outside-unit", Original, 1.5, fail},
		{"no-safe-setting", LoadBalance, math.NaN(), fail + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newController(t)
			ref := newController(t)
			col := append([]float64(nil), col...)
			col[ranges[fail].Lo] = tc.bad

			var bs BatchScratch
			err := c.DecideBatchCold(col, ranges, tc.scheme, c.ColdSource, &bs, newScratches(len(ranges)), make([]Decision, len(ranges)))
			var ge GroupError
			if !errors.As(err, &ge) {
				t.Fatalf("batch error %v is not a GroupError", err)
			}
			reached := -1
			for g, r := range ranges {
				if _, err := ref.decideSerial(col[r.Lo:r.Hi], tc.scheme, ref.ColdSource); err != nil {
					reached = g
					break
				}
			}
			if reached != ge.Group || reached != fail {
				t.Fatalf("batch failed at group %d, serial at %d (want %d)", ge.Group, reached, fail)
			}
			bh, bc := c.CacheStats()
			_, sc := ref.CacheStats()
			wantHits, wantCalls := expectedCounts(col, ranges[:tc.counted], tc.scheme, 0)
			if bc != sc || bc != wantCalls || bh != wantHits {
				t.Errorf("batch (hits=%d calls=%d), serial calls %d; want %d hits of %d calls", bh, bc, sc, wantHits, wantCalls)
			}
		})
	}
}

// TestDecideBatchEmptyGroup pins the typed empty-utilization error and its
// group attribution.
func TestDecideBatchEmptyGroup(t *testing.T) {
	c := newController(t)
	col := []float64{0.5, 0.25}
	ranges := []Range{{0, 2}, {2, 2}}
	var bs BatchScratch
	err := c.DecideBatchCold(col, ranges, Original, c.ColdSource, &bs, []*Scratch{{}, {}}, make([]Decision, 2))
	if !errors.Is(err, ErrEmptyUtilizations) {
		t.Fatalf("empty group error = %v, want ErrEmptyUtilizations", err)
	}
	var ge GroupError
	if !errors.As(err, &ge) || ge.Group != 1 {
		t.Fatalf("error %v does not attribute group 1", err)
	}
}

// TestDecideIntoEmptyTyped pins the adapter unwrap: Decide on an empty
// slice returns the bare sentinel, exactly as the scalar referee does.
func TestDecideIntoEmptyTyped(t *testing.T) {
	c := newController(t)
	if _, err := c.Decide(nil, Original, c.ColdSource, &Scratch{}); !errors.Is(err, ErrEmptyUtilizations) {
		t.Errorf("Decide(nil) = %v, want ErrEmptyUtilizations", err)
	}
	if _, err := c.decideSerial(nil, Original, c.ColdSource); !errors.Is(err, ErrEmptyUtilizations) {
		t.Errorf("referee(nil) = %v, want ErrEmptyUtilizations", err)
	}
	if _, err := EffectiveUtilizations(nil, Original); !errors.Is(err, ErrEmptyUtilizations) {
		t.Errorf("EffectiveUtilizations(nil) = %v, want ErrEmptyUtilizations", err)
	}
}

// TestDecideBatchErrorsMatchSerial checks that per-group failures carry the
// scalar referee's exact error text and the lowest failing group index.
func TestDecideBatchErrorsMatchSerial(t *testing.T) {
	c := newController(t)
	ref := newController(t)
	cases := [][]float64{
		{0.5, 1.5},  // plane above 1 under Original
		{-0.5, 0.2}, // negative utilization drags the mean under 0
	}
	for _, us := range cases {
		scheme := Original
		if us[0] < 0 {
			scheme = LoadBalance
		}
		_, wantErr := ref.decideSerial(us, scheme, ref.ColdSource)
		if wantErr == nil {
			t.Fatalf("case %v: referee unexpectedly succeeded", us)
		}
		var bs BatchScratch
		err := c.DecideBatchCold(us, []Range{{0, len(us)}}, scheme, c.ColdSource, &bs, []*Scratch{{}}, make([]Decision, 1))
		var ge GroupError
		if !errors.As(err, &ge) {
			t.Fatalf("case %v: batch error %v is not a GroupError", us, err)
		}
		if ge.Group != 0 || ge.Err.Error() != wantErr.Error() {
			t.Errorf("case %v: batch error %q != serial %q", us, ge.Err, wantErr)
		}
	}
}

// TestDecideBatchValidatesArguments covers the batch-only argument checks.
func TestDecideBatchValidatesArguments(t *testing.T) {
	c := newController(t)
	col := []float64{0.5}
	var bs BatchScratch
	if err := c.DecideBatchCold(col, []Range{{0, 1}}, Original, c.ColdSource, &bs, nil, make([]Decision, 1)); err == nil {
		t.Error("mismatched scratches accepted")
	}
	if err := c.DecideBatchCold(col, []Range{{0, 2}}, Original, c.ColdSource, &bs, []*Scratch{{}}, make([]Decision, 1)); err == nil {
		t.Error("out-of-bounds range accepted")
	}
	if err := c.DecideBatchCold(col, []Range{{0, 1}}, Original, c.ColdSource, &bs, []*Scratch{nil}, make([]Decision, 1)); err == nil {
		t.Error("nil scratch accepted")
	}
}

// TestDecideBatchAllocationFree pins the steady state of the engine's batch
// path: with grown scratches, a whole-column DecideBatchCold performs zero
// allocations.
func TestDecideBatchAllocationFree(t *testing.T) {
	c := newController(t)
	col, ranges := batchColumn(17, 12, 13)
	var bs BatchScratch
	scratches := make([]*Scratch, len(ranges))
	for g := range scratches {
		scratches[g] = &Scratch{}
	}
	out := make([]Decision, len(ranges))
	if err := c.DecideBatchCold(col, ranges, Original, c.ColdSource, &bs, scratches, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.DecideBatchCold(col, ranges, Original, c.ColdSource, &bs, scratches, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("reused DecideBatchCold = %v allocs/op, want 0", allocs)
	}
}

// TestDecideBatchOverlappingRanges checks groups may share column windows
// (Decide passes the whole slice as its one group).
func TestDecideBatchOverlappingRanges(t *testing.T) {
	c := newController(t)
	col := []float64{0.2, 0.6, 0.9, 0.4}
	ranges := []Range{{0, 4}, {1, 3}, {0, 4}}
	var bs BatchScratch
	scratches := []*Scratch{{}, {}, {}}
	out := make([]Decision, 3)
	if err := c.DecideBatchCold(col, ranges, LoadBalance, c.ColdSource, &bs, scratches, out); err != nil {
		t.Fatal(err)
	}
	if !decisionsEqual(out[0], out[2]) {
		t.Errorf("identical windows decided differently: %+v vs %+v", out[0], out[2])
	}
}

// BenchmarkDecisionDecideBatch measures the batched column path on a 10k
// column split into 64 groups. warm re-decides one column under Original,
// whose maxima mostly collapse onto the plane 1, so the dedupe resolves few
// planes. churn scales the column by a fresh factor every iteration — an
// exact-quantum replay, where planes are almost never seen twice — and
// decides LoadBalance, whose mean planes differ per group.
func BenchmarkDecisionDecideBatch(b *testing.B) {
	base, ranges := batchColumn(64, 320, 5)
	servers := 0
	for _, r := range ranges {
		servers += r.Hi - r.Lo
	}
	run := func(b *testing.B, scheme Scheme, churn bool) {
		c := benchController(b)
		col := append([]float64(nil), base...)
		var bs BatchScratch
		scratches := make([]*Scratch, len(ranges))
		for g := range scratches {
			scratches[g] = &Scratch{}
		}
		out := make([]Decision, len(ranges))
		if err := c.DecideBatchCold(col, ranges, scheme, c.ColdSource, &bs, scratches, out); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if churn {
				f := 1 - float64(i%1000003+1)/(1<<30)
				for k, u := range base {
					col[k] = u * f
				}
			}
			if err := c.DecideBatchCold(col, ranges, scheme, c.ColdSource, &bs, scratches, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(servers), "servers/op")
	}
	b.Run("warm", func(b *testing.B) { run(b, Original, false) })
	b.Run("churn", func(b *testing.B) { run(b, LoadBalance, true) })
}
