package trace

import (
	"fmt"
	"io"
	"time"
)

// Meta is the shape metadata every Source knows up front: enough for an
// engine to size its O(servers) working set and preallocate per-run state
// without ever materializing the servers × intervals matrix.
type Meta struct {
	Name      string
	Class     Class
	Servers   int
	Intervals int
	Interval  time.Duration
}

// Validate reports metadata errors.
func (m Meta) Validate() error {
	if m.Servers <= 0 || m.Intervals <= 0 {
		return fmt.Errorf("trace: source %q has shape %dx%d; servers and intervals must be positive",
			m.Name, m.Servers, m.Intervals)
	}
	if m.Interval <= 0 {
		return fmt.Errorf("trace: source %q has non-positive interval %v", m.Name, m.Interval)
	}
	return nil
}

// Source is a pull-based stream of trace columns: the utilizations of every
// server at one control interval. It is the streaming counterpart of *Trace
// — the engine consumes one column at a time with an O(servers) working set,
// so a source may cover arbitrarily long traces without the dense matrix
// ever existing in memory.
//
// NextColumn fills dst (which must have length Meta().Servers) with the
// next interval's per-server utilizations and returns that interval's
// 0-based index. Columns arrive strictly in interval order, 0 through
// Meta().Intervals-1; after the last column every call returns io.EOF.
// Sources validate their own samples: a delivered column always holds
// finite values in [0, 1].
//
// A Source is single-stream state: it is not safe for concurrent use, and
// it cannot be rewound. Concurrent runs (the Fleet's scheme comparison)
// either open their own source or share one through Tee, which decodes it
// once and hands each run a branch. Sources backed by files implement
// io.Closer.
type Source interface {
	Meta() Meta
	NextColumn(dst []float64) (interval int, err error)
}

// TraceSource adapts an in-memory *Trace to the Source interface. The trace
// must be valid (see Trace.Validate); NextColumn copies columns in the same
// order Trace.Column does, so an engine consuming a TraceSource is
// bit-identical to one reading the trace directly.
type TraceSource struct {
	tr   *Trace
	next int
}

// NewTraceSource wraps tr. It validates the trace once up front, mirroring
// the engine's historical entry check.
func NewTraceSource(tr *Trace) (*TraceSource, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TraceSource{tr: tr}, nil
}

// Meta reports the trace's shape.
func (s *TraceSource) Meta() Meta {
	return Meta{
		Name:      s.tr.Name,
		Class:     s.tr.Class,
		Servers:   s.tr.Servers(),
		Intervals: s.tr.Intervals(),
		Interval:  s.tr.Interval,
	}
}

// NextColumn copies the next interval's column into dst.
func (s *TraceSource) NextColumn(dst []float64) (int, error) {
	if s.next >= s.tr.Intervals() {
		return 0, io.EOF
	}
	if len(dst) != s.tr.Servers() {
		return 0, fmt.Errorf("trace: column buffer has %d slots, want %d", len(dst), s.tr.Servers())
	}
	i := s.next
	for sv := range s.tr.U {
		dst[sv] = s.tr.U[sv][i]
	}
	s.next++
	return i, nil
}

// SeekInterval repositions the stream so the next NextColumn returns
// interval i. In-memory traces support random access, so resuming a
// checkpointed run over a TraceSource skips the replay of earlier columns.
func (s *TraceSource) SeekInterval(i int) error {
	if i < 0 || i > s.tr.Intervals() {
		return fmt.Errorf("trace: seek to interval %d outside [0,%d]", i, s.tr.Intervals())
	}
	s.next = i
	return nil
}

// Skip positions src so the next NextColumn returns interval start: one seek
// on sources with random access (those implementing SeekInterval, like
// TraceSource), otherwise a replay-and-discard of the prefix columns — still
// O(servers) memory, since generators re-derive their columns and file
// sources re-read them. It is the shared resume repositioning of the
// streaming engine and the sharded prefetcher.
func Skip(src Source, start int) error {
	if start <= 0 {
		return nil
	}
	if s, ok := src.(interface{ SeekInterval(int) error }); ok {
		return s.SeekInterval(start)
	}
	col := make([]float64, src.Meta().Servers)
	for i := 0; i < start; i++ {
		got, err := src.NextColumn(col)
		if err != nil {
			return fmt.Errorf("trace: skip at interval %d: %w", i, err)
		}
		if got != i {
			return fmt.Errorf("trace: skip: source delivered interval %d, want %d", got, i)
		}
	}
	return nil
}

// Materialize drains a source into a dense *Trace: the bridge from the
// streaming world back to the in-memory API. It is the one place a source's
// full matrix is ever allocated, so callers opt into the O(servers ×
// intervals) cost explicitly.
func Materialize(src Source) (*Trace, error) {
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	tr, err := New(m.Name, m.Class, m.Servers, m.Intervals, m.Interval)
	if err != nil {
		return nil, err
	}
	col := make([]float64, m.Servers)
	for {
		i, err := src.NextColumn(col)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= m.Intervals {
			return nil, fmt.Errorf("trace: source delivered interval %d outside [0,%d)", i, m.Intervals)
		}
		for sv := range tr.U {
			tr.U[sv][i] = col[sv]
		}
	}
	return tr, tr.Validate()
}

// validateColumn checks one streamed column's samples, shared by the file-
// backed sources. NaN and out-of-range values are rejected with the same
// bounds Trace.Validate enforces.
func validateColumn(col []float64, interval int) error {
	for sv, u := range col {
		if u != u || u < 0 || u > 1 {
			return fmt.Errorf("trace: server %d interval %d utilization %v outside [0,1]", sv, interval, u)
		}
	}
	return nil
}
