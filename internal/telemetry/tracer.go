package telemetry

import (
	"sync"
	"time"
)

// Span is one recorded timed region: an engine control interval, one
// circulation step, a queue wait. Arg carries the caller's index (interval
// number, circulation index, worker id) so a trace can be grouped without
// per-span label allocation.
type Span struct {
	// Name identifies the span kind ("interval", "circulation", ...).
	Name string `json:"name"`
	// Arg is a caller-defined index (interval number, circulation index).
	Arg int64 `json:"arg"`
	// Start is the span's start time in nanoseconds since the tracer was
	// created, so traces from one run share a common clock.
	Start int64 `json:"start_ns"`
	// Duration is the span length in nanoseconds.
	Duration int64 `json:"duration_ns"`
	// seq orders spans globally; it survives ring wrap-around.
	seq uint64
}

// Tracer records spans into a fixed ring buffer: the last capacity spans of
// a run are retained, older ones are overwritten. Recording on a nil tracer
// is a no-op costing one branch, so a disabled engine never reads the clock.
//
// The ring is guarded by a mutex rather than per-slot atomics: spans are
// recorded per control interval and per circulation step — thousands per
// run, not millions per second — and a mutex keeps snapshots untorn.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	next  uint64 // total spans ever recorded; next%cap is the write slot
}

// DefaultTraceCapacity bounds the span ring when the caller does not choose:
// enough for every interval and circulation of a 1000-server day-long trace
// tail while staying a few hundred KiB.
const DefaultTraceCapacity = 1 << 14

// NewTracer returns a tracer retaining the last capacity spans (capacity
// <= 0 selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// Record stores a span that started at start and lasted d. Nil-receiver
// safe; allocation-free once the ring has wrapped (the ring grows to its
// capacity on first use and is reused afterwards).
func (t *Tracer) Record(name string, arg int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := Span{Name: name, Arg: arg, Start: start.Sub(t.epoch).Nanoseconds(), Duration: d.Nanoseconds()}
	t.mu.Lock()
	s.seq = t.next
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.next%uint64(cap(t.spans))] = s
	}
	t.next++
	t.mu.Unlock()
}

// Total returns the number of spans ever recorded, including those evicted
// by ring wrap-around.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Snapshot returns the retained spans in recording order (oldest first). The
// slice is freshly allocated; a nil tracer returns nil.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	if len(t.spans) < cap(t.spans) || len(t.spans) == 0 {
		copy(out, t.spans)
		return out
	}
	// The ring has wrapped: the oldest span sits at next%cap.
	head := int(t.next % uint64(cap(t.spans)))
	n := copy(out, t.spans[head:])
	copy(out[n:], t.spans[:head])
	return out
}
