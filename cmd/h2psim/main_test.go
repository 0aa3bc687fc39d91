package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

func TestRunSyntheticTraces(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runOptions{servers: 60, circ: 20, seed: 42}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 14", "Fig. 15",
		"drastic", "irregular", "common", "average",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunWithSeriesFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runOptions{servers: 40, circ: 20, seed: 42, workers: 2, series: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "interval series") {
		t.Error("series output missing")
	}
}

func TestRunCSVTrace(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(30), 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runOptions{circ: 15, workers: 1, traceFile: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "common") {
		t.Errorf("CSV trace output missing class:\n%s", buf.String())
	}
}

func TestRunMissingTraceFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runOptions{servers: 10, circ: 5, seed: 1, traceFile: "/nonexistent/trace.csv"}); err == nil {
		t.Error("missing trace file should error")
	}
}

// TestRunTelemetryOutputs exercises the telemetry file flags end to end on a
// tiny cluster: the metrics file must carry the cache counters and the
// harvested-power histogram, the trace file a span array, and the series
// file one row per trace x interval with plausible power/outlet columns.
func TestRunTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "run.metrics")
	spans := filepath.Join(dir, "run.trace")
	seriesCSV := filepath.Join(dir, "series.csv")
	var buf bytes.Buffer
	opt := runOptions{
		servers: 40, circ: 20, seed: 42, workers: 2,
		telemetry:  telemetry.New(),
		metricsOut: metrics, traceOut: spans, seriesOut: seriesCSV,
	}
	if err := run(context.Background(), &buf, opt); err != nil {
		t.Fatal(err)
	}

	mb, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"h2p_decision_cache_calls_total",
		"h2p_decision_cache_hits_total",
		"# TYPE h2p_engine_interval_seconds histogram",
		"h2p_interval_teg_power_watts_per_server_count",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics file missing %q", want)
		}
	}

	tb, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []telemetry.Span
	if err := json.Unmarshal(tb, &recorded); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(recorded) == 0 {
		t.Error("trace file has no spans")
	}

	sf, err := os.Open(seriesCSV)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	rows, err := csv.NewReader(sf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "trace" || rows[0][6] != "orig_outlet_c" {
		t.Errorf("series header = %v", rows[0])
	}
	// Three synthetic traces; every row carries positive power and a warm
	// outlet temperature.
	if len(rows) < 4 {
		t.Fatalf("series has %d rows", len(rows))
	}
	for _, row := range rows[1:] {
		p, err := strconv.ParseFloat(row[4], 64)
		if err != nil || p <= 0 {
			t.Fatalf("row %v: bad orig power", row)
		}
		out, err := strconv.ParseFloat(row[6], 64)
		if err != nil || out < 30 || out > 70 {
			t.Fatalf("row %v: implausible outlet", row)
		}
	}
}

// TestRunSeriesJSON checks the .json extension switches the series format.
func TestRunSeriesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.json")
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runOptions{
		servers: 40, circ: 20, seed: 42, workers: 2, seriesOut: path,
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pts []seriesPoint
	if err := json.Unmarshal(b, &pts); err != nil {
		t.Fatalf("series JSON does not parse: %v", err)
	}
	if len(pts) == 0 || pts[0].OrigPowerW <= 0 || pts[0].OrigOutC <= 0 {
		t.Errorf("series points degenerate: %+v", pts[:min(len(pts), 2)])
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := run(ctx, &buf, runOptions{servers: 60, circ: 20, seed: 42}); err == nil {
		t.Error("cancelled context should abort the run")
	}
}

// TestStreamHaltResumeByteIdentical automates the kill/resume acceptance
// flow: a run halted at a checkpoint boundary prints nothing, and the
// resumed run's stdout and -series-out export are byte-identical to an
// uninterrupted run's.
func TestStreamHaltResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := runOptions{servers: 60, circ: 20, seed: 42, workers: 2, series: true}

	full := base
	full.seriesOut = filepath.Join(dir, "full.csv")
	var fullOut bytes.Buffer
	if err := run(context.Background(), &fullOut, full); err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(dir, "cp.json")
	halted := base
	halted.checkpoint = cp
	halted.checkpointEvery = 20
	halted.haltAfter = 50
	var haltOut bytes.Buffer
	if err := run(context.Background(), &haltOut, halted); !errors.Is(err, errHalted) {
		t.Fatalf("halted run: err = %v, want errHalted", err)
	}
	if haltOut.Len() != 0 {
		t.Fatalf("halted run wrote %d bytes to stdout; a partial report must never print", haltOut.Len())
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("checkpoint file missing after halt: %v", err)
	}

	resumed := base
	resumed.checkpoint = cp
	resumed.resume = true
	resumed.seriesOut = filepath.Join(dir, "resumed.csv")
	var resumeOut bytes.Buffer
	if err := run(context.Background(), &resumeOut, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullOut.Bytes(), resumeOut.Bytes()) {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s",
			fullOut.String(), resumeOut.String())
	}
	fullCSV, err := os.ReadFile(full.seriesOut)
	if err != nil {
		t.Fatal(err)
	}
	resumedCSV, err := os.ReadFile(resumed.seriesOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullCSV, resumedCSV) {
		t.Error("resumed -series-out export differs from uninterrupted run")
	}
}

// TestStreamResumeWithoutCheckpointFileFails pins the coordinator's refusal
// to "resume" from nothing — a silent fresh start would masquerade as a
// completed resume.
func TestStreamResumeWithoutCheckpointFileFails(t *testing.T) {
	opt := runOptions{servers: 40, circ: 20, seed: 1,
		checkpoint: filepath.Join(t.TempDir(), "missing.json"), resume: true}
	if err := run(context.Background(), io.Discard, opt); err == nil {
		t.Fatal("resume from a missing checkpoint file succeeded")
	}
}
