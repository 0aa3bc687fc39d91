// Package trace models datacenter CPU-utilization traces: the input of the
// H2P trace-driven evaluation (Sec. V-C).
//
// The paper evaluates on three workload classes derived from the Alibaba and
// Google cluster traces. Those datasets are external downloads, so this
// package ships seeded synthetic generators that reproduce the published
// qualitative shapes — *drastic* (Alibaba: violent, frequent fluctuations
// over 12 h), *irregular* (Google: calm baseline with occasional high peaks
// over 24 h) and *common* (Google: little fluctuation over 24 h) — plus CSV
// I/O so the real traces can be dropped in unchanged.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/h2p-sim/h2p/internal/stats"
)

// Class labels the workload shape of a trace.
type Class string

// The three workload classes of Sec. V-C.
const (
	Drastic   Class = "drastic"
	Irregular Class = "irregular"
	Common    Class = "common"
)

// Trace is a per-server CPU-utilization time series. U[s][t] is the
// utilization of server s in interval t, in [0, 1].
type Trace struct {
	Name     string
	Class    Class
	Interval time.Duration
	U        [][]float64
}

// MaxCells bounds the dense servers × intervals matrix New will allocate:
// 2^31 float64 cells is a 16 GiB backing array, far beyond any in-memory
// evaluation (the paper's largest is 12.5k servers × 288 intervals = 3.6M
// cells). Longer traces belong on the streaming Source path, which never
// materializes the matrix.
const MaxCells = 1 << 31

// ShapeError reports a trace shape New refuses to allocate: non-positive
// axes, a servers × intervals product that would overflow int, or one past
// MaxCells. It is a typed error so loaders can distinguish "this file asks
// for an absurd allocation" from parse failures.
type ShapeError struct {
	Servers, Intervals int
	Reason             string
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("trace: invalid shape %d servers x %d intervals: %s",
		e.Servers, e.Intervals, e.Reason)
}

// New allocates a zero trace with the given shape.
func New(name string, class Class, servers, intervals int, interval time.Duration) (*Trace, error) {
	if servers <= 0 || intervals <= 0 {
		return nil, &ShapeError{Servers: servers, Intervals: intervals,
			Reason: "servers and intervals must be positive"}
	}
	// Guard servers*intervals against int overflow before the product is
	// formed: a wrapped product would under-allocate the backing slice and
	// the row-slicing loop below would panic (or worse, silently alias).
	if intervals > math.MaxInt/servers {
		return nil, &ShapeError{Servers: servers, Intervals: intervals,
			Reason: "servers x intervals overflows int"}
	}
	if cells := servers * intervals; cells > MaxCells {
		return nil, &ShapeError{Servers: servers, Intervals: intervals,
			Reason: fmt.Sprintf("%d cells exceeds MaxCells (%d); use the streaming Source path", cells, MaxCells)}
	}
	if interval <= 0 {
		return nil, errors.New("trace: interval must be positive")
	}
	u := make([][]float64, servers)
	backing := make([]float64, servers*intervals)
	for s := range u {
		u[s], backing = backing[:intervals], backing[intervals:]
	}
	return &Trace{Name: name, Class: class, Interval: interval, U: u}, nil
}

// Servers returns the number of servers in the trace.
func (t *Trace) Servers() int { return len(t.U) }

// Intervals returns the number of time steps in the trace.
func (t *Trace) Intervals() int {
	if len(t.U) == 0 {
		return 0
	}
	return len(t.U[0])
}

// Duration returns the wall-clock span the trace covers.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.Intervals()) * t.Interval
}

// Validate checks the trace is rectangular with utilizations in [0, 1].
func (t *Trace) Validate() error {
	if t.Servers() == 0 || t.Intervals() == 0 {
		return errors.New("trace: empty trace")
	}
	w := t.Intervals()
	for s, row := range t.U {
		if len(row) != w {
			return fmt.Errorf("trace: server %d has %d intervals, want %d", s, len(row), w)
		}
		for i, u := range row {
			if math.IsNaN(u) || u < 0 || u > 1 {
				return fmt.Errorf("trace: server %d interval %d utilization %v outside [0,1]", s, i, u)
			}
		}
	}
	return nil
}

// Column copies the utilizations of all servers at interval i into dst
// (allocated if nil) and returns it.
func (t *Trace) Column(i int, dst []float64) ([]float64, error) {
	if i < 0 || i >= t.Intervals() {
		return nil, fmt.Errorf("trace: interval %d out of range", i)
	}
	if cap(dst) < t.Servers() {
		dst = make([]float64, t.Servers())
	}
	dst = dst[:t.Servers()]
	for s := range t.U {
		dst[s] = t.U[s][i]
	}
	return dst, nil
}

// MaxAt returns the maximum utilization across servers at interval i
// (the U_max plane of the cooling optimizer).
func (t *Trace) MaxAt(i int) (float64, error) {
	col, err := t.Column(i, nil)
	if err != nil {
		return 0, err
	}
	return stats.Max(col), nil
}

// AvgAt returns the mean utilization across servers at interval i
// (the U_avg plane used under workload balancing).
func (t *Trace) AvgAt(i int) (float64, error) {
	col, err := t.Column(i, nil)
	if err != nil {
		return 0, err
	}
	return stats.Mean(col), nil
}

// Describe summarizes all utilization samples in the trace.
func (t *Trace) Describe() (stats.Summary, error) {
	flat := make([]float64, 0, t.Servers()*t.Intervals())
	for _, row := range t.U {
		flat = append(flat, row...)
	}
	return stats.Describe(flat)
}

// DispersionAt returns U_max - U_avg at interval i: the gap the workload
// balancer collapses.
func (t *Trace) DispersionAt(i int) (float64, error) {
	mx, err := t.MaxAt(i)
	if err != nil {
		return 0, err
	}
	av, err := t.AvgAt(i)
	if err != nil {
		return 0, err
	}
	return mx - av, nil
}

// Slice returns a view of the first n servers (sharing backing storage),
// mirroring how the paper selects 1,000 of the Google trace's 12.5k servers.
func (t *Trace) Slice(n int) (*Trace, error) {
	if n <= 0 || n > t.Servers() {
		return nil, fmt.Errorf("trace: cannot slice %d of %d servers", n, t.Servers())
	}
	return &Trace{
		Name:     fmt.Sprintf("%s[0:%d]", t.Name, n),
		Class:    t.Class,
		Interval: t.Interval,
		U:        t.U[:n],
	}, nil
}
