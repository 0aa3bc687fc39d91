package telemetry

import (
	"math"
	"runtime/metrics"
	"testing"
	"time"
)

func TestSampleSelfStats(t *testing.T) {
	r := New()
	newSelfSampler(r).sample()
	if v := r.Gauge(metricSelfHeapBytes, "").Value(); v <= 0 {
		t.Errorf("heap bytes = %v, want > 0", v)
	}
	if v := r.Gauge(metricSelfGoroutines, "").Value(); v < 1 {
		t.Errorf("goroutines = %v, want >= 1", v)
	}
	if v := r.Gauge(metricSelfGCCycles, "").Value(); v < 0 {
		t.Errorf("gc cycles = %v, want >= 0", v)
	}
	if v := r.Gauge(metricSelfGCPauseSec, "").Value(); v < 0 {
		t.Errorf("gc pause seconds = %v, want >= 0", v)
	}
}

func TestSampleSelfStatsNil(t *testing.T) {
	var r *Registry
	stop := r.StartSelfStats(time.Millisecond)
	stop()
	stop() // stop is idempotent
}

func TestStartSelfStats(t *testing.T) {
	r := New()
	stop := r.StartSelfStats(time.Millisecond)
	defer stop()
	// The first sample is synchronous: gauges are live before any tick.
	if v := r.Gauge(metricSelfHeapBytes, "").Value(); v <= 0 {
		t.Errorf("heap bytes after StartSelfStats = %v, want > 0", v)
	}
	stop()
	stop() // double-stop must not panic
}

// TestHistogramSum pins the midpoint approximation, including the unbounded
// outer buckets runtime/metrics histograms carry.
func TestHistogramSum(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{2, 3, 1},
		Buckets: []float64{math.Inf(-1), 1, 3, math.Inf(1)},
	}
	// Underflow bucket uses its finite edge (1): 2*1. Middle bucket midpoint
	// 2: 3*2. Overflow bucket uses its finite edge (3): 1*3.
	want := 2.0*1 + 3.0*2 + 1.0*3
	if got := histogramSum(h); got != want {
		t.Errorf("histogramSum = %v, want %v", got, want)
	}
	if got := histogramSum(&metrics.Float64Histogram{Buckets: []float64{0, 1}, Counts: []uint64{0}}); got != 0 {
		t.Errorf("empty histogram sum = %v, want 0", got)
	}
}
