package sched

import (
	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported decision-path metric names. The cache counters exist on every
// controller (CacheStats is built on them); the rest only when a registry is
// attached.
const (
	metricCacheHits    = "h2p_decision_cache_hits_total"
	metricCacheCalls   = "h2p_decision_cache_calls_total"
	metricCacheInserts = "h2p_decision_cache_inserts_total"
	metricChosenInlet  = "h2p_decision_chosen_inlet_celsius"
	metricChosenFlow   = "h2p_decision_chosen_flow_lph"
	metricCurveEvals   = "h2p_decision_powercurve_evals_total"
	metricBatchGroups  = "h2p_decision_batch_groups"
	metricBatchUnique  = "h2p_decision_batch_unique_planes"
)

// schedMetrics holds the optional (registry-attached) decision metrics.
type schedMetrics struct {
	// chosenInlet/chosenFlow histogram every Choose outcome — the
	// chosen-setting distribution across the run, one observation per
	// control decision (hits included: the distribution weights settings by
	// how often they were commanded, not by how often they were computed).
	chosenInlet *telemetry.Histogram
	chosenFlow  *telemetry.Histogram
	// curveEvals counts candidate power-curve evaluations: the Step 2-3
	// scan work performed on cache misses.
	curveEvals *telemetry.Counter
	// batchGroups/batchUnique histogram each DecideBatchCold call's width: how
	// many groups it decided and how many distinct (quantized) planes
	// survived the key dedup — the batch path's cache-probe compression.
	batchGroups *telemetry.Histogram
	batchUnique *telemetry.Histogram
}

// AttachTelemetry registers the controller's decision metrics with reg and
// swaps the cache counters for registry-owned ones, so the run's exporters
// see hits/calls/inserts under their metric names. Attaching nil — the
// no-op registry — leaves the controller exactly as built: standalone cache
// counters for CacheStats and no extra instrumentation on the hot path.
//
// Call before the controller is shared across goroutines (the engine does so
// at construction); counters accumulated before the call stay behind in the
// standalone instruments.
func (c *Controller) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.hits = reg.Counter(metricCacheHits, "decision cache hits")
	c.calls = reg.Counter(metricCacheCalls, "Choose calls (cache hits + misses)")
	c.inserts = reg.Counter(metricCacheInserts, "decision cache inserts (misses that published an entry)")
	c.met = &schedMetrics{
		chosenInlet: reg.Histogram(metricChosenInlet, "chosen inlet water temperature per decision",
			telemetry.LinearBuckets(30, 2, 15)),
		chosenFlow: reg.Histogram(metricChosenFlow, "chosen coolant flow per decision",
			telemetry.LinearBuckets(20, 20, 12)),
		curveEvals: reg.Counter(metricCurveEvals, "candidate TEG power-curve evaluations (cache-miss scan work)"),
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

// addCacheCounts adds one DecideBatchCold call's cache accounting to the
// shared counters: one atomic add per nonzero counter instead of one per
// group.
func (c *Controller) addCacheCounts(calls, hits, inserts uint64) {
	if calls > 0 {
		c.calls.Add(calls)
	}
	if hits > 0 {
		c.hits.Add(hits)
	}
	if inserts > 0 {
		c.inserts.Add(inserts)
	}
}
