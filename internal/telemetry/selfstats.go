package telemetry

import (
	"math"
	"runtime/metrics"
	"time"
)

// Self-stats: the process's own runtime health, sampled from runtime/metrics
// into ordinary gauges so the serving endpoint answers "is the simulator
// itself struggling" next to the simulation's metrics. Sampling reads four
// runtime metrics; it never stops the world.
const (
	metricSelfHeapBytes  = "h2p_self_heap_bytes"
	metricSelfGoroutines = "h2p_self_goroutines"
	metricSelfGCCycles   = "h2p_self_gc_cycles_total"
	metricSelfGCPauseSec = "h2p_self_gc_pause_seconds_total"
)

// selfSampler holds the gauges and the reusable runtime/metrics sample set.
type selfSampler struct {
	heap, goroutines, gcCycles, gcPause *Gauge
	samples                             []metrics.Sample
}

func newSelfSampler(r *Registry) *selfSampler {
	return &selfSampler{
		heap:       r.Gauge(metricSelfHeapBytes, "live heap bytes (runtime/metrics heap objects)"),
		goroutines: r.Gauge(metricSelfGoroutines, "live goroutines"),
		gcCycles:   r.Gauge(metricSelfGCCycles, "completed GC cycles"),
		gcPause:    r.Gauge(metricSelfGCPauseSec, "approximate cumulative GC pause seconds (histogram midpoints)"),
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/pauses:seconds"},
		},
	}
}

// sample reads the runtime metrics into the gauges.
func (s *selfSampler) sample() {
	metrics.Read(s.samples)
	for _, m := range s.samples {
		var v float64
		switch m.Value.Kind() {
		case metrics.KindUint64:
			v = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			v = m.Value.Float64()
		case metrics.KindFloat64Histogram:
			v = histogramSum(m.Value.Float64Histogram())
		default:
			continue
		}
		switch m.Name {
		case "/memory/classes/heap/objects:bytes":
			s.heap.Set(v)
		case "/sched/goroutines:goroutines":
			s.goroutines.Set(v)
		case "/gc/cycles/total:gc-cycles":
			s.gcCycles.Set(v)
		case "/gc/pauses:seconds":
			s.gcPause.Set(v)
		}
	}
}

// histogramSum approximates a runtime histogram's total as the count-weighted
// sum of bucket midpoints (the GC pause distribution has no exact total).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// The outermost buckets are unbounded; fall back to the finite edge.
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += float64(n) * mid
	}
	return total
}

// StartSelfStats samples the process's runtime health into the registry
// every `every` (<= 0 picks 5s) until the returned stop function is called.
// A nil registry returns a no-op stop. One immediate sample is taken before
// the ticker starts so the gauges are never zero on a fresh endpoint.
func (r *Registry) StartSelfStats(every time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if every <= 0 {
		every = 5 * time.Second
	}
	s := newSelfSampler(r)
	s.sample()
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
		}
	}
}
