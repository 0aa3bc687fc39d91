package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a registry with one of each instrument kind and
// deterministic contents.
func goldenRegistry() *Registry {
	r := New()
	c := r.Counter("h2p_test_hits_total", "cache hits")
	c.Add(7)
	g := r.Gauge("h2p_test_workers", "worker pool size")
	g.Set(8)
	h := r.Histogram("h2p_test_latency_seconds", "step latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	return r
}

// TestWritePromGolden pins the exposition text byte-for-byte: deterministic
// name ordering, HELP/TYPE headers, cumulative le buckets, +Inf spelled out.
func TestWritePromGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP h2p_test_hits_total cache hits
# TYPE h2p_test_hits_total counter
h2p_test_hits_total 7
# HELP h2p_test_latency_seconds step latency
# TYPE h2p_test_latency_seconds histogram
h2p_test_latency_seconds_bucket{le="0.5"} 1
h2p_test_latency_seconds_bucket{le="1"} 2
h2p_test_latency_seconds_bucket{le="+Inf"} 3
h2p_test_latency_seconds_sum 3
h2p_test_latency_seconds_count 3
# HELP h2p_test_workers worker pool size
# TYPE h2p_test_workers gauge
h2p_test_workers 8
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePromNil checks a nil registry writes nothing (and no error).
func TestWritePromNil(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry wrote %q", b.String())
	}
}

// TestSnapshot checks the JSON snapshot carries every instrument with exact
// values and the non-cumulative bucket counts.
func TestSnapshot(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	if snap == nil {
		t.Fatal("snapshot is nil for a live registry")
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "h2p_test_hits_total" || snap.Counters[0].Value != 7 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 8 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	h := snap.Histograms[0]
	if h.Count != 3 || h.Sum != 3 || h.Mean != 1 {
		t.Errorf("histogram count/sum/mean = %d/%v/%v", h.Count, h.Sum, h.Mean)
	}
	if len(h.Counts) != 3 || h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("bucket counts = %v (want non-cumulative 1,1,1)", h.Counts)
	}
}

// TestWriteJSONRoundTrips checks the emitted JSON parses back into an
// equivalent snapshot, and a nil registry emits the null literal.
func TestWriteJSONRoundTrips(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Errorf("round-tripped counters = %+v", snap.Counters)
	}

	b.Reset()
	var nilReg *Registry
	if err := nilReg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "null" {
		t.Errorf("nil registry JSON = %q, want null", b.String())
	}
}

// TestWriteTrace checks span export: recorded spans appear oldest-first, and
// a registry without a tracer (or a nil registry) emits an empty array.
func TestWriteTrace(t *testing.T) {
	r := New()
	tr := r.Tracer(8)
	tr.Record("interval", 3, tr.epoch.Add(time.Microsecond), 2*time.Microsecond)
	var b strings.Builder
	if err := r.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(b.String()), &spans); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "interval" || spans[0].Arg != 3 ||
		spans[0].Start != 1000 || spans[0].Duration != 2000 {
		t.Errorf("spans = %+v", spans)
	}

	for _, r := range []*Registry{New(), nil} {
		b.Reset()
		if err := r.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(b.String()) != "[]" {
			t.Errorf("tracerless registry trace = %q, want []", b.String())
		}
	}
}

// TestSnapshotCountsEvictedSpans checks SpansRecorded counts every span ever
// recorded, not just those the ring retains.
func TestSnapshotCountsEvictedSpans(t *testing.T) {
	r := New()
	tr := r.Tracer(2)
	for i := 0; i < 5; i++ {
		tr.Record("s", 0, tr.epoch, 0)
	}
	if got := r.Snapshot().SpansRecorded; got != 5 {
		t.Errorf("SpansRecorded = %d, want 5", got)
	}
}
