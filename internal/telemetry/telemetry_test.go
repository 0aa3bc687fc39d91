package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsInert pins the disabled regime: a nil registry hands out
// nil instruments and every method on them is a safe no-op.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", LinearBuckets(0, 1, 4))
	tr := r.Tracer(0)
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatalf("nil registry must return nil instruments, got %v %v %v %v", c, g, h, tr)
	}
	c.Add(1)
	c.Inc()
	c.AddHint(3, 1)
	g.Set(2.5)
	h.Observe(1)
	h.ObserveHint(7, 1)
	if c.Value() != 0 || g.Value() != 0 || h.Value().Count != 0 {
		t.Error("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil (disabled, not empty)")
	}
}

// TestNilInstrumentRecordAllocs proves the disabled path is allocation-free:
// recording on nil instruments must not allocate, so threading a no-op
// registry through the engine cannot perturb the 0 allocs/op hot path.
func TestNilInstrumentRecordAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		c.AddHint(1, 1)
		g.Set(1)
		h.ObserveHint(1, 1)
		tr.Record("x", 0, time.Time{}, 0)
	})
	if allocs != 0 {
		t.Errorf("nil-instrument records allocated %v times, want 0", allocs)
	}
}

// TestEnabledRecordAllocs proves the enabled record path is allocation-free
// too: counters and histograms must be safe to call from the engine's
// workers without generating garbage.
func TestEnabledRecordAllocs(t *testing.T) {
	c := NewCounter("c")
	h := NewHistogram("h", LinearBuckets(0, 1, 8))
	allocs := testing.AllocsPerRun(100, func() {
		c.AddHint(3, 1)
		h.ObserveHint(3, 2.5)
	})
	if allocs != 0 {
		t.Errorf("enabled records allocated %v times, want 0", allocs)
	}
}

// TestRegistryDedup checks name-based deduplication: the same name returns
// the same instrument, so engines sharing a registry aggregate one series.
func TestRegistryDedup(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored")
	if a != b {
		t.Error("same name must return the same counter")
	}
	h1 := r.Histogram("h", "", LinearBuckets(0, 1, 4))
	h2 := r.Histogram("h", "", nil) // bounds ignored on second ask
	if h1 != h2 {
		t.Error("same name must return the same histogram")
	}
	a.Add(2)
	b.Add(3)
	if got := a.Value(); got != 5 {
		t.Errorf("deduped counter = %d, want 5", got)
	}
}

// TestRegistryKindMismatchPanics pins the redeclaration contract.
func TestRegistryKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("name", "")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter's name must panic")
		}
	}()
	r.Gauge("name", "")
}

// TestCounterConcurrent drives one counter from 16 writers (run under -race
// by make race): the folded total must be exact.
func TestCounterConcurrent(t *testing.T) {
	c := NewCounter("c")
	const writers = 16
	const perW = 2000
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.AddHint(uint64(w), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != writers*perW {
		t.Errorf("counter = %d, want %d", got, writers*perW)
	}
}

// TestHistogramConcurrent drives one histogram from 16 writers: count, sum
// and bucket populations must all be exact once the writers drain.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("h", []float64{1, 2, 3})
	const writers = 16
	const perW = 1000
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.ObserveHint(uint64(w), float64(i%4)) // 0,1,2,3 round-robin
			}
		}(w)
	}
	wg.Wait()
	v := h.Value()
	if v.Count != writers*perW {
		t.Errorf("count = %d, want %d", v.Count, writers*perW)
	}
	wantSum := float64(writers) * perW / 4 * (0 + 1 + 2 + 3)
	if v.Sum != wantSum {
		t.Errorf("sum = %v, want %v", v.Sum, wantSum)
	}
	// 0 and 1 land in bucket le=1; 2 in le=2; 3 in le=3; nothing overflows.
	want := []uint64{writers * perW / 2, writers * perW / 4, writers * perW / 4, 0}
	for i, n := range v.Counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

// TestHistogramBuckets pins the upper-bound semantics: an observation equal
// to a bound belongs to that bound's bucket, beyond the last bound to +Inf.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("h", []float64{10, 20})
	for _, v := range []float64{5, 10, 10.5, 20, 25} {
		h.Observe(v)
	}
	v := h.Value()
	want := []uint64{2, 2, 1} // (-inf,10]=2, (10,20]=2, (20,+inf)=1
	for i, n := range v.Counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if v.Count != 5 || v.Sum != 70.5 {
		t.Errorf("count/sum = %d/%v, want 5/70.5", v.Count, v.Sum)
	}
	if got := v.Mean(); got != 70.5/5 {
		t.Errorf("mean = %v, want %v", got, 70.5/5)
	}
}

// TestBucketHelpers pins the two bucket constructors.
func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(30, 2, 3)
	if len(lin) != 3 || lin[0] != 30 || lin[1] != 32 || lin[2] != 34 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(1e-5, 4, 3)
	if len(exp) != 3 || exp[0] != 1e-5 || exp[1] != 4e-5 || exp[2] != 16e-5 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
	if LinearBuckets(0, 1, 0) != nil || ExponentialBuckets(0, 4, 3) != nil {
		t.Error("degenerate bucket args must return nil")
	}
}

// TestGauge checks set/read round-trips including negative values.
func TestGauge(t *testing.T) {
	g := New().Gauge("g", "")
	for _, v := range []float64{0, 1.5, -2.25, 1e9} {
		g.Set(v)
		if got := g.Value(); got != v {
			t.Errorf("gauge = %v, want %v", got, v)
		}
	}
}
