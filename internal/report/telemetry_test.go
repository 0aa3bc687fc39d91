package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/experiments"
	"github.com/h2p-sim/h2p/internal/telemetry"
)

// TestWriteTelemetryDisabledNote checks a report without a snapshot states
// so explicitly: an absent counter must read as unmeasured, never as zero.
func TestWriteTelemetryDisabledNote(t *testing.T) {
	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{Servers: 10, Seed: 1})
	if err := Write(&buf, opts, []*experiments.Table{sampleTable()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## Telemetry") {
		t.Errorf("telemetry section missing:\n%s", out)
	}
	if !strings.Contains(out, "Telemetry was **disabled**") ||
		!strings.Contains(out, "unmeasured, not zero") {
		t.Errorf("disabled notice missing:\n%s", out)
	}
}

// TestWriteTelemetrySnapshotSection checks an attached snapshot renders its
// counters, gauges and histogram summaries.
func TestWriteTelemetrySnapshotSection(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("h2p_decision_cache_hits_total", "").Add(123)
	reg.Gauge("h2p_engine_workers", "").Set(8)
	h := reg.Histogram("h2p_interval_teg_power_watts_per_server", "", telemetry.LinearBuckets(0, 1, 8))
	h.Observe(3.5)
	h.Observe(4.5)
	tr := reg.Tracer(8)
	tr.Record("interval", 0, time.Now(), 0)

	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{Servers: 10, Seed: 1})
	opts.Telemetry = reg.Snapshot()
	if err := Write(&buf, opts, []*experiments.Table{sampleTable()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Telemetry",
		"| h2p_decision_cache_hits_total | 123 |",
		"| h2p_engine_workers | 8 |",
		"| h2p_interval_teg_power_watts_per_server | 2 | 4 | 8 |",
		"> 1 spans recorded by the interval tracer.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in report:\n%s", want, out)
		}
	}
	if strings.Contains(out, "disabled") {
		t.Error("disabled notice must not appear alongside a snapshot")
	}
	// No fault counters were recorded: the section must say fault-free
	// explicitly instead of vanishing.
	if !strings.Contains(out, "### Fault injection") || !strings.Contains(out, "fault-free") {
		t.Errorf("fault-free notice missing:\n%s", out)
	}
}

// TestWriteTelemetryFaultSection checks h2p_fault_* counters are pulled out
// of the run metrics into their own fault-injection subsection.
func TestWriteTelemetryFaultSection(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("h2p_decision_cache_hits_total", "").Add(5)
	reg.Counter("h2p_fault_teg_degraded_total", "").Add(24)
	reg.Counter("h2p_fault_pump_droop_total", "").Add(13)

	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{Servers: 10, Seed: 1})
	opts.Telemetry = reg.Snapshot()
	if err := Write(&buf, opts, []*experiments.Table{sampleTable()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"### Fault injection",
		"| h2p_fault_teg_degraded_total | 24 |",
		"| h2p_fault_pump_droop_total | 13 |",
		"degraded gracefully",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in report:\n%s", want, out)
		}
	}
	// The fault counters must not also appear in the general metrics table
	// above the subsection.
	general := out[:strings.Index(out, "### Fault injection")]
	if strings.Contains(general, "h2p_fault_") {
		t.Error("fault counters leaked into the general metrics table")
	}
	if !strings.Contains(general, "| h2p_decision_cache_hits_total | 5 |") {
		t.Error("general counter missing from the run metrics table")
	}
}
