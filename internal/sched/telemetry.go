package sched

import (
	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported decision-path metric names. Every controller keeps its own
// decision counters under the cache names (CacheStats reads them); the
// registry's instruments exist only when one is attached. The names predate
// the per-call plane dedupe and stay for the dashboards that read them.
const (
	metricCacheHits   = "h2p_decision_cache_hits_total"
	metricCacheCalls  = "h2p_decision_cache_calls_total"
	metricChosenInlet = "h2p_decision_chosen_inlet_celsius"
	metricChosenFlow  = "h2p_decision_chosen_flow_lph"
	metricCurveEvals  = "h2p_decision_powercurve_evals_total"
	metricBatchGroups = "h2p_decision_batch_groups"
	metricBatchUnique = "h2p_decision_batch_unique_planes"
)

// schedMetrics holds the optional (registry-attached) decision metrics.
type schedMetrics struct {
	// hits/calls are the registry's decision counters, shared by name with
	// every controller on the registry (a Fleet's engines).
	hits, calls *telemetry.Counter
	// chosenInlet/chosenFlow histogram every decision's setting — the
	// chosen-setting distribution across the run, one observation per
	// control decision (hits included: the distribution weights settings by
	// how often they were commanded, not by how often they were computed).
	chosenInlet *telemetry.Histogram
	chosenFlow  *telemetry.Histogram
	// curveEvals counts the slab rows the scan kernel visited — the Step 2-3
	// scan work, once per distinct plane, up to each scan's early exit
	// (lookup's scan-cells histogram counts the rows handed out).
	curveEvals *telemetry.Counter
	// batchGroups/batchUnique histogram each DecideBatchCold call's width: how
	// many groups it decided and how many distinct (quantized) planes
	// survived the key dedup — the scans the dedupe saved.
	batchGroups *telemetry.Histogram
	batchUnique *telemetry.Histogram
}

// AttachTelemetry registers the controller's decision metrics with reg, the
// decision hits/calls among them: they count beside the controller's
// own counters, which CacheStats keeps reading. Attaching nil — the no-op
// registry — leaves the controller exactly as built: no extra
// instrumentation on the hot path.
//
// Call before the controller is shared across goroutines (the engine does so
// at construction); the registry counters count from the call on.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.met = &schedMetrics{
		hits:  reg.Counter(metricCacheHits, "decisions whose plane an earlier group of the same batch call resolved"),
		calls: reg.Counter(metricCacheCalls, "decisions made"),
		chosenInlet: reg.Histogram(metricChosenInlet, "chosen inlet water temperature per decision",
			telemetry.LinearBuckets(30, 2, 15)),
		chosenFlow: reg.Histogram(metricChosenFlow, "chosen coolant flow per decision",
			telemetry.LinearBuckets(20, 20, 12)),
		curveEvals: reg.Counter(metricCurveEvals, "slab rows the scan kernel evaluated, up to its early exit (one scan per distinct plane)"),
		batchGroups: reg.Histogram(metricBatchGroups, "decision groups per DecideBatchCold call",
			telemetry.LinearBuckets(0, 8, 9)),
		batchUnique: reg.Histogram(metricBatchUnique, "distinct quantized planes per DecideBatchCold call",
			telemetry.LinearBuckets(0, 4, 9)),
	}
}

// observeBatch records one DecideBatchCold call's group and unique-plane counts
// when decision metrics are attached. One branch when they are not.
func (c *Controller) observeBatch(groups, unique int) {
	if m := c.met; m != nil {
		m.batchGroups.Observe(float64(groups))
		m.batchUnique.Observe(float64(unique))
	}
}

// observeChoice records the chosen setting's distribution when decision
// metrics are attached. One branch when they are not.
func (c *Controller) observeChoice(hint uint64, s Setting) {
	if m := c.met; m != nil {
		m.chosenInlet.ObserveHint(hint, float64(s.Inlet))
		m.chosenFlow.ObserveHint(hint, float64(s.Flow))
	}
}

// addDecisionCounts adds one Choose call's, or one DecideBatchCold call's,
// decision counts to the controller's counters and, with a registry
// attached, to the registry's, on the counter shard picked by hint.
func (c *Controller) addDecisionCounts(hint, calls, hits uint64) {
	c.calls.AddHint(hint, calls)
	c.hits.AddHint(hint, hits)
	if m := c.met; m != nil {
		m.calls.AddHint(hint, calls)
		m.hits.AddHint(hint, hits)
	}
}

// bucketOf spreads a plane's 64 key bits over 2^12 values with a Fibonacci
// hash: quantized planes differ only in a few low mantissa bits, which a
// plain mask would collapse onto a handful of values. It is the counters'
// and histograms' shard hint, so a given plane always lands on the same
// shard.
func bucketOf(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - 12)
}
