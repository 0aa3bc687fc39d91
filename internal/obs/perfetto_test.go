package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/telemetry"
)

func sampleSpans() []telemetry.Span {
	return []telemetry.Span{
		{Name: "interval", Arg: 0, Start: 1_000, Duration: 2_000},
		{Name: "shard00.step", Arg: 0, Start: 1_100, Duration: 500},
		{Name: "shard01.step", Arg: 0, Start: 1_200, Duration: 700},
		{Name: "merge.wait", Arg: 1, Start: 3_000, Duration: 100},
		{Name: "interval", Arg: 1, Start: 3_500, Duration: 1_500},
	}
}

// TestPerfettoGolden exports a span set and parses it back field by field:
// the golden validity test for the trace-event JSON the exporter emits.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	tf, err := ValidateTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}

	// 4 distinct names -> 4 metadata events + 5 complete events.
	if len(tf.TraceEvents) != 9 {
		t.Fatalf("trace has %d events, want 9", len(tf.TraceEvents))
	}
	// Track ids are assigned in lexical name order, starting at 1.
	wantTid := map[string]int{"interval": 1, "merge.wait": 2, "shard00.step": 3, "shard01.step": 4}
	meta := map[int]string{}
	for _, ev := range tf.TraceEvents[:4] {
		if ev.Ph != "M" || ev.Name != "thread_name" || ev.Pid != tracePid {
			t.Fatalf("leading event is not track metadata: %+v", ev)
		}
		meta[ev.Tid] = ev.Args["name"].(string)
	}
	for name, tid := range wantTid {
		if meta[tid] != name {
			t.Errorf("tid %d = %q, want %q", tid, meta[tid], name)
		}
	}
	// Complete events follow span order with ns -> us conversion.
	first := tf.TraceEvents[4]
	if first.Ph != "X" || first.Name != "interval" || first.Tid != 1 {
		t.Errorf("first complete event = %+v", first)
	}
	if first.Ts != 1.0 || first.Dur != 2.0 {
		t.Errorf("first event ts/dur = %v/%v us, want 1/2", first.Ts, first.Dur)
	}
	if arg, ok := first.Args["arg"].(float64); !ok || arg != 0 {
		t.Errorf("first event arg = %v", first.Args["arg"])
	}

	// Deterministic: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteTraceEvents(&buf2, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated export is not byte-identical")
	}
}

// TestPerfettoFromTracerRing exports a real tracer ring — including after
// wrap-around — and validates the result.
func TestPerfettoFromTracerRing(t *testing.T) {
	tr := telemetry.NewTracer(8)
	base := time.Now()
	for i := 0; i < 20; i++ {
		tr.Record("interval", int64(i), base.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	spans := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("ring retained %d spans, want 8", len(spans))
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, spans); err != nil {
		t.Fatal(err)
	}
	tf, err := ValidateTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 9 { // 1 metadata + 8 spans
		t.Errorf("events = %d, want 9", len(tf.TraceEvents))
	}
}

func TestPerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	tf, err := ValidateTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Errorf("empty export has %d events", len(tf.TraceEvents))
	}
}

// TestValidateTraceEventsRejects pins the validator's checks.
func TestValidateTraceEventsRejects(t *testing.T) {
	cases := map[string]string{
		"unnamed tid": `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":7,"ts":1}]}`,
		"missing ph":  `{"traceEvents":[{"name":"x","pid":1,"tid":1}]}`,
		"bad phase":   `{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":1}]}`,
		"negative ts": `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"x"}},{"name":"x","ph":"X","pid":1,"tid":1,"ts":-5}]}`,
		"dup track":   `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"a"}},{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"b"}}]}`,
		"not json":    `nope`,
	}
	for label, in := range cases {
		if _, err := ValidateTraceEvents(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %s", label, in)
		}
	}
}

// ValidateTraceEvents parses trace_event JSON back and checks the structural
// invariants a viewer relies on: every event has a phase, complete events
// have non-negative ts/dur and a named track, and every tid used by a
// complete event is named by exactly one thread_name metadata event. It
// returns the parsed file for field-by-field inspection.
func ValidateTraceEvents(r io.Reader) (*TraceFile, error) {
	var tf TraceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("obs: trace-event JSON: %w", err)
	}
	tracks := make(map[int]string)
	for i, ev := range tf.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		if ev.Name != "thread_name" {
			return nil, fmt.Errorf("obs: metadata event %d: unexpected name %q", i, ev.Name)
		}
		name, _ := ev.Args["name"].(string)
		if name == "" {
			return nil, fmt.Errorf("obs: metadata event %d: thread_name without args.name", i)
		}
		if prev, dup := tracks[ev.Tid]; dup {
			return nil, fmt.Errorf("obs: tid %d named twice (%q, %q)", ev.Tid, prev, name)
		}
		tracks[ev.Tid] = name
	}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
		case "X":
			if ev.Name == "" {
				return nil, fmt.Errorf("obs: event %d: empty name", i)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				return nil, fmt.Errorf("obs: event %d (%s): negative ts/dur", i, ev.Name)
			}
			if _, ok := tracks[ev.Tid]; !ok {
				return nil, fmt.Errorf("obs: event %d (%s): tid %d has no thread_name", i, ev.Name, ev.Tid)
			}
		case "":
			return nil, fmt.Errorf("obs: event %d: missing phase", i)
		default:
			return nil, fmt.Errorf("obs: event %d: unsupported phase %q", i, ev.Ph)
		}
	}
	return &tf, nil
}
