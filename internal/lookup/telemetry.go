package lookup

import (
	"sync/atomic"

	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported look-up space metric names.
const (
	metricBatchScans      = "h2p_lookup_batch_scans_total"
	metricBatchScanPlanes = "h2p_lookup_batch_scan_planes"
	metricBatchScanCells  = "h2p_lookup_batch_scan_cells"
)

// spaceMetrics instruments the decision path's miss scan: per row fetch
// (SlabRows, PlaneRows) — cache-miss work — the planes located and the rows
// handed out. The kernel's early exit visits only a prefix of a segment's
// rows; the controller's h2p_decision_powercurve_evals_total counts the
// rows it visited.
type spaceMetrics struct {
	batchScans      *telemetry.Counter
	batchScanPlanes *telemetry.Histogram
	batchScanCells  *telemetry.Histogram
}

// AttachTelemetry registers the space's miss-scan metrics with reg. The
// grids themselves stay immutable — the metrics hang off an atomic pointer,
// so attaching is safe even while other goroutines are mid-scan, and
// attaching the same registry from several engines sharing one space (the
// Fleet does) converges on the same instruments by name. A nil registry is
// the no-op default: scans pay one atomic pointer load per call (not per
// cell) and record nothing.
func (s *Space) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.met.Store(&spaceMetrics{
		batchScans: reg.Counter(metricBatchScans, "batched candidate-plane scans"),
		batchScanPlanes: reg.Histogram(metricBatchScanPlanes, "utilization planes evaluated per batch scan",
			telemetry.LinearBuckets(0, 32, 9)),
		batchScanCells: reg.Histogram(metricBatchScanCells, "slab rows handed to the miss-scan kernel per row fetch (its early exit may visit fewer)",
			telemetry.LinearBuckets(0, 1000, 8)),
	})
}

// metrics returns the attached metrics, or nil.
func (s *Space) metrics() *spaceMetrics { return s.met.Load() }

// spaceMetricsPtr is embedded in Space as an atomic pointer so that
// attaching telemetry never mutates the (otherwise immutable, widely
// shared) space under a concurrent reader.
type spaceMetricsPtr = atomic.Pointer[spaceMetrics]
