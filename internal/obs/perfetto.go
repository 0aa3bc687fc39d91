package obs

import (
	"encoding/json"
	"io"
	"sort"

	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Chrome trace-event / Perfetto export: the telemetry span ring rendered as
// the JSON object format (https://ui.perfetto.dev loads it directly). Every
// distinct span name becomes its own track (pid 1, one tid per name, named
// by a thread_name metadata event), so the engine's "interval" spans, each
// shard's "shardNN.step" spans and the pipeline's "decode"/"merge.wait"/
// "checkpoint" spans line up as parallel timelines.

// TraceEvent is one trace_event record. Only the fields the viewer needs
// are emitted: complete events (Ph "X") carry ts/dur in microseconds and
// the span's arg; metadata events (Ph "M") name the tracks.
type TraceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	// Ts and Dur are microseconds from the tracer epoch (trace_event's unit).
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	// Args carries the span's caller index under "arg" for complete events,
	// or the track name under "name" for thread_name metadata.
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the trace_event JSON object format.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// tracePid is the single process every track lives under.
const tracePid = 1

// ConvertSpans renders a span snapshot as trace events. Track (tid)
// assignment is deterministic: span names sorted lexically, tid 1..n —
// export of the same ring twice yields byte-identical output.
func ConvertSpans(spans []telemetry.Span) TraceFile {
	names := make(map[string]int)
	for _, s := range spans {
		names[s.Name] = 0
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for i, name := range sorted {
		names[name] = i + 1
	}

	events := make([]TraceEvent, 0, len(spans)+len(sorted))
	for _, name := range sorted {
		events = append(events, TraceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  tracePid,
			Tid:  names[name],
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		events = append(events, TraceEvent{
			Name: s.Name,
			Ph:   "X",
			Pid:  tracePid,
			Tid:  names[s.Name],
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Duration) / 1e3,
			Args: map[string]any{"arg": s.Arg},
		})
	}
	return TraceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
}

// WriteTraceEvents converts spans and writes the trace_event JSON to w.
func WriteTraceEvents(w io.Writer, spans []telemetry.Span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ConvertSpans(spans))
}
