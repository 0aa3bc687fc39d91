package sched

import (
	"github.com/h2p-sim/h2p/internal/telemetry"
)

// Exported decision-path metric names. Every controller keeps its own cache
// counters under the cache names (CacheStats reads them); the registry's
// instruments exist only when one is attached.
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
	// hits/calls/inserts are the registry's cache counters, shared by name
	// with every controller on the registry (a Fleet's engines).
	hits, calls, inserts *telemetry.Counter
	// chosenInlet/chosenFlow histogram every Choose outcome — the
	// chosen-setting distribution across the run, one observation per
	// control decision (hits included: the distribution weights settings by
	// how often they were commanded, not by how often they were computed).
	chosenInlet *telemetry.Histogram
	chosenFlow  *telemetry.Histogram
	// curveEvals counts the slab rows the miss-scan kernel visited — the
	// Step 2-3 scan work performed on cache misses, up to each scan's early
	// exit (lookup's scan-cells histogram counts the rows handed out).
	curveEvals *telemetry.Counter
	// batchGroups/batchUnique histogram each DecideBatchCold call's width: how
	// many groups it decided and how many distinct (quantized) planes
	// survived the key dedup — the batch path's cache-probe compression.
	batchGroups *telemetry.Histogram
	batchUnique *telemetry.Histogram
}

// AttachTelemetry registers the controller's decision metrics with reg, the
// cache hits/calls/inserts among them: they count beside the controller's
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
		hits:    reg.Counter(metricCacheHits, "decision cache hits"),
		calls:   reg.Counter(metricCacheCalls, "Choose calls (cache hits + misses)"),
		inserts: reg.Counter(metricCacheInserts, "decision cache inserts (misses that published an entry)"),
		chosenInlet: reg.Histogram(metricChosenInlet, "chosen inlet water temperature per decision",
			telemetry.LinearBuckets(30, 2, 15)),
		chosenFlow: reg.Histogram(metricChosenFlow, "chosen coolant flow per decision",
			telemetry.LinearBuckets(20, 20, 12)),
		curveEvals: reg.Counter(metricCurveEvals, "slab rows the miss-scan kernel evaluated, up to its early exit (cache-miss scan work)"),
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

// addCacheCounts adds one Choose call's, or one DecideBatchCold call's, cache
// accounting to the controller's counters and, with a registry attached, to
// the registry's, on the counter shard picked by hint.
func (c *Controller) addCacheCounts(hint, calls, hits, inserts uint64) {
	c.calls.AddHint(hint, calls)
	c.hits.AddHint(hint, hits)
	c.inserts.AddHint(hint, inserts)
	if m := c.met; m != nil {
		m.calls.AddHint(hint, calls)
		m.hits.AddHint(hint, hits)
		m.inserts.AddHint(hint, inserts)
	}
}
