// Package telemetry is the engine's zero-overhead instrumentation layer:
// atomic counters, gauges and fixed-bucket histograms collected in a
// Registry, a ring-buffer span tracer for per-interval timing, and two
// exporters (Prometheus-style text exposition and a JSON snapshot) served by
// an optional net/http endpoint.
//
// The package is built around two regimes:
//
//   - Disabled (the default). A nil *Registry hands out nil instruments, and
//     every instrument method is nil-receiver safe: recording on a nil
//     Counter, Gauge, Histogram or Tracer is a branch on the receiver and
//     nothing else — no allocation, no atomic operation, no time read. The
//     decision hot path (sched.Controller.Decide and DecideBatchCold, the
//     engine's interval step) stays at zero allocations per warm interval,
//     pinned by AllocsPerRun regression tests.
//
//   - Enabled. Instruments are lock-free and allocation-free on the record
//     path: counters and histograms are sharded and cache-line padded like
//     the sched decision counters, so the parallel engine's workers do
//     not bounce one cache line per observation. Snapshots and exposition
//     only read atomics; they never block writers.
//
// Instruments may be created standalone (NewCounter, NewHistogram) or
// through a Registry, which names them for export and deduplicates by name:
// asking a Registry twice for the same name returns the same instrument, so
// several engines sharing one registry aggregate into one series.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// counterShards spreads a counter's increments across independent cache
// lines. Writers pick a shard from a caller-supplied hint (a worker index or
// key hash); totals are exact regardless of the hint because Value sums every
// shard.
const counterShards = 16

// padded is one cache-line-isolated atomic slot.
type padded struct {
	n atomic.Uint64
	_ [56]byte // pad to a cache line so shards do not false-share
}

// Counter is a monotonically increasing counter. The zero value is NOT ready
// to use — counters are created by NewCounter or Registry.Counter — but all
// methods are nil-receiver safe, so a disabled (nil) counter records nothing
// at the cost of a single branch.
type Counter struct {
	name, help string
	slots      [counterShards]padded
}

// NewCounter returns a standalone counter (not attached to any registry).
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Add increments the counter by n. Safe for concurrent use; single-writer or
// low-contention paths may call it directly, hot multi-writer paths should
// prefer AddHint with a stable per-writer hint.
func (c *Counter) Add(n uint64) { c.AddHint(0, n) }

// Inc adds one.
func (c *Counter) Inc() { c.AddHint(0, 1) }

// AddHint increments the counter by n on the shard selected by hint. A
// stable hint (worker index, key hash) keeps concurrent writers on disjoint
// cache lines; any hint produces exact totals.
func (c *Counter) AddHint(hint, n uint64) {
	if c == nil {
		return
	}
	c.slots[hint%counterShards].n.Add(n)
}

// Value folds the shards into the lifetime total. Lock-free; a nil counter
// reads zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.slots {
		t += c.slots[i].n.Load()
	}
	return t
}

// Gauge is a single float64 value that can go up and down (worker pool size,
// live queue depth). Reads and writes are single atomics on the float bits.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v. Nil-receiver safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value loads the current value. A nil gauge reads zero.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histShards spreads a histogram's observation state across independent
// cache-line-padded shards. Fewer than counterShards because each shard
// carries a full bucket array.
const histShards = 4

// histShard is one independent copy of the histogram state. counts has one
// slot per bound plus the +Inf overflow bucket.
type histShard struct {
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the shard's observation sum
	count   atomic.Uint64
	_       [40]byte
}

// Histogram is a fixed-bucket histogram of float64 observations. Buckets are
// cumulative on export (Prometheus `le` semantics); observation is lock-free
// and allocation-free: one atomic add on the bucket, one on the count, and a
// CAS loop folding the value into the shard's sum.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf bucket is implicit
	shards     [histShards]histShard
}

// NewHistogram returns a standalone histogram over the given ascending
// upper bounds. An empty or nil bounds slice yields a single +Inf bucket
// (count/sum only).
func NewHistogram(name string, bounds []float64) *Histogram {
	h := &Histogram{name: name, bounds: append([]float64(nil), bounds...)}
	sort.Float64s(h.bounds)
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(h.bounds)+1)
	}
	return h
}

// Observe records v. Nil-receiver safe; hot multi-writer paths should prefer
// ObserveHint.
func (h *Histogram) Observe(v float64) { h.ObserveHint(0, v) }

// ObserveHint records v on the shard selected by hint (a worker index or key
// hash), keeping concurrent writers on disjoint cache lines.
func (h *Histogram) ObserveHint(hint uint64, v float64) {
	if h == nil {
		return
	}
	s := &h.shards[hint%histShards]
	// Upper-bound search: bounds are short (≤ ~30), a linear scan beats the
	// branch misses of a binary search and allocates nothing.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// HistogramValue is a merged, point-in-time read of a histogram.
type HistogramValue struct {
	// Bounds are the ascending bucket upper bounds; Counts[i] is the
	// NON-cumulative population of (Bounds[i-1], Bounds[i]]. Counts has one
	// more entry than Bounds: the +Inf overflow bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Mean returns the average observation, or 0 for an empty histogram.
func (v HistogramValue) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}

// Value merges the shards into one HistogramValue. Lock-free: concurrent
// observations may land between the per-shard reads, so the value is a
// consistent-enough snapshot for reporting, never torn per-field below the
// shard level.
func (h *Histogram) Value() HistogramValue {
	if h == nil {
		return HistogramValue{}
	}
	v := HistogramValue{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range sh.counts {
			v.Counts[i] += sh.counts[i].Load()
		}
		v.Count += sh.count.Load()
		v.Sum += math.Float64frombits(sh.sumBits.Load())
	}
	return v
}

// Registry collects named instruments for export. The zero value is not
// used; New returns a ready registry, and a nil *Registry is the canonical
// disabled ("no-op") registry: every constructor on it returns a nil
// instrument whose record methods cost one branch.
type Registry struct {
	mu     sync.Mutex
	order  []string // insertion order of names, for deterministic export
	byName map[string]interface{}
	tracer *Tracer
}

// New returns an empty registry.
func New() *Registry { return &Registry{byName: make(map[string]interface{})} }

// Counter returns the registered counter with the given name, creating it on
// first use. Asking again with the same name returns the same counter.
// Registering a name already held by a different instrument kind panics:
// that is a programming error on par with redeclaring a variable.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		c, ok := got.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, got))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Gauge returns the registered gauge with the given name, creating it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		g, ok := got.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, got))
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Histogram returns the registered histogram with the given name, creating
// it over the given bucket bounds on first use. Later calls return the
// existing histogram regardless of the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		h, ok := got.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, got))
		}
		return h
	}
	h := NewHistogram(name, bounds)
	h.help = help
	r.register(name, h)
	return h
}

// register records the instrument under its name. Caller holds r.mu.
func (r *Registry) register(name string, inst interface{}) {
	r.byName[name] = inst
	r.order = append(r.order, name)
}

// Tracer returns the registry's span tracer, creating a ring of the given
// capacity on first use (later calls ignore the argument). A nil registry
// returns a nil — fully inert — tracer.
func (r *Registry) Tracer(capacity int) *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracer == nil {
		r.tracer = NewTracer(capacity)
	}
	return r.tracer
}

// LinearBuckets returns count ascending bounds starting at start, spaced by
// width — a convenience for histogram construction.
func LinearBuckets(start, width float64, count int) []float64 {
	if count <= 0 {
		return nil
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count ascending bounds starting at start, each
// factor times the previous. start and factor must be positive.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if count <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
