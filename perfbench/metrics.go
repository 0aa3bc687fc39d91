package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Metric kinds. End-to-end metrics come from untraced runs (--trace 0) and
// per-layer metrics from the traced run (--trace 1). The gated end-to-end
// metrics are the result line's; wall-clock end-to-end metrics print beside
// them but stay out of the result line, because on a shared virtual machine
// hypervisor steal moves wall clocks by more than any useful bound (the CPU
// time the program side consumed does not include steal).
const (
	gated = "e2e"
	wall  = "wall"
	layer = "layer"
)

// metricDef names one reported metric. moves records, before any
// measurement, which end-to-end metric a layer metric should move and on
// which workload.
type metricDef struct {
	name   string
	unit   string
	better string
	kind   string
	moves  string
}

// metricDefs is the benchmark's metric catalogue, in print order. The
// smoke test checks that BENCHMARK.json lists exactly the gated and
// per-layer ones.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", gated, "CPU time of set-up before the first interval or request: source open and index, engine and look-up space build, server start"},
	{"peak_rss_mb", "MB", "lower", gated, "peak RSS of the process running the program side"},
	{"server_intervals_per_cpu_s", "1/s", "higher", gated, "simulated server-intervals, summed over schemes, per CPU second of the program side"},
	{"server_intervals_per_s", "1/s", "higher", wall, "simulated server-intervals, summed over schemes, per host (wall) second"},
	{"run_latency_p50_ms", "ms", "lower", wall, "serve-mixed: paced run latency from its due time; batch workloads: one invocation's wall clock"},
	{"run_latency_p99_ms", "ms", "lower", wall, "as run_latency_p50_ms, nearest-rank 99th percentile"},
	{"capacity_runs_per_s", "1/s", "higher", wall, "serve-mixed: runs completed per second, saturated; batch workloads: scheme runs per wall second"},

	{"trace.open_s", "s", "lower", layer, "setup_s on replay-csv (the CSV row index)"},
	{"trace.decode_s", "s", "lower", layer, "server_intervals_per_s on replay-csv (decoder on the critical path); on month-warm only by the generator's share; not serve-mixed"},
	{"trace.values_per_s", "1/s", "higher", layer, "as trace.decode_s"},
	{"trace.mb_per_s", "MB/s", "higher", layer, "as trace.decode_s (generator: 8 bytes per value produced)"},
	{"shard.decode_s", "s", "lower", layer, "explains replay-csv: decoder busy time inside the shard pipeline"},
	{"shard.merge_wait_s", "s", "lower", layer, "explains replay-csv: while close to the run time, shard-side gains cannot move server_intervals_per_s"},
	{"shard.merge_wait_frac", "ratio", "lower", layer, "merger waits / intervals; as shard.merge_wait_s"},
	{"shard.step_s_max", "s", "lower", layer, "slowest shard's step time; explains replay-csv"},
	{"shard.step_skew", "ratio", "lower", layer, "max / min shard step time; explains replay-csv"},
	{"sched.decide_s", "s", "lower", layer, "capacity_runs_per_s and run_latency_p99_ms on serve-mixed; nothing on replay-csv until decode is off the critical path; little on month-warm"},
	{"sched.decide_ns_per_server", "ns", "lower", layer, "as sched.decide_s"},
	{"sched.cache_hit_ratio", "ratio", "higher", layer, "hits / calls of the pipeline run; as sched.decide_s"},
	{"sched.cache_hits", "count", "higher", layer, "numerator of sched.cache_hit_ratio"},
	{"sched.cache_calls", "count", "lower", layer, "denominator of sched.cache_hit_ratio"},
	{"core.step_s", "s", "lower", layer, "server_intervals_per_s on month-warm; capacity_runs_per_s on serve-mixed"},
	{"core.physics_s", "s", "lower", layer, "derived: core.step_s - sched.decide_s; as core.step_s"},
	{"core.merge_s", "s", "lower", layer, "serial residue: server_intervals_per_s on month-warm; hidden behind the decoder on replay-csv"},
	{"core.fold_s", "s", "lower", layer, "serial residue including env, heat reuse and storage: as core.merge_s"},
	{"core.step_retries", "count", "lower", layer, "wasted work on replay-csv (fault plan)"},
	{"core.degraded_frac", "ratio", "lower", layer, "degraded circulation-intervals / circulation-intervals; wasted work on replay-csv"},
	{"obs.observe_s", "s", "lower", layer, "replay-csv only (month-warm runs without a journal)"},
	{"obs.journal_bytes", "bytes", "lower", layer, "replay-csv only"},
	{"serve.submit_ms_p50", "ms", "lower", layer, "POST round trip; run_latency_p99_ms and capacity_runs_per_s on serve-mixed"},
	{"serve.submit_ms_p99", "ms", "lower", layer, "as serve.submit_ms_p50"},
	{"serve.queue_wait_ms_p50", "ms", "lower", layer, "started - submitted (run status); run_latency_p99_ms on serve-mixed"},
	{"serve.queue_wait_ms_p99", "ms", "lower", layer, "as serve.queue_wait_ms_p50; FIFO head-of-line blocking shows here"},
	{"serve.exec_ms_p50", "ms", "lower", layer, "finished - started (run status); capacity_runs_per_s on serve-mixed"},
	{"serve.exec_ms_p99", "ms", "lower", layer, "as serve.exec_ms_p50"},
	{"serve.fetch_ms_p50", "ms", "lower", layer, "result GET round trip; run_latency_p50_ms on serve-mixed"},
	{"serve.rejected_429", "count", "lower", layer, "quota refusals; any is a failure on serve-mixed"},
	{"serve.rejected_503", "count", "lower", layer, "queue-full refusals; any is a failure on serve-mixed"},
	{"loadgen.lag_ms_p99", "ms", "lower", layer, "how late the open-loop generator ran; the paced phase is invalid past the lag bound"},
	{"bench.residual_s", "s", "lower", layer, "traced wall clock minus the sum of stage times"},
	{"bench.trace_overhead_frac", "ratio", "lower", layer, "timed stage loop against the same loop untimed"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts the operations a workload attempted and how many failed —
// errors, refusals and outputs that did not match their reference.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) ok() { t.attempted++ }
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// values collects one run's measured metrics by name.
type values map[string]float64

// emit builds the result line with exactly the metrics of one kind (gated
// end-to-end or per-layer); a metric of that kind the workload did not
// measure is an error in the benchmark, not a zero.
func emit(w io.Writer, v values, kind string, t *tally) (*report, error) {
	r := &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, d := range metricDefs {
		if d.kind != kind {
			continue
		}
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return r, err
}

// printMetrics writes every measured metric as a readable table, with the
// end-to-end metric each layer metric should move.
func printMetrics(w io.Writer, v values) {
	fmt.Fprintf(w, "%-28s %16s %-7s %-5s %s\n", "metric", "value", "unit", "kind", "moves")
	for _, d := range metricDefs {
		x, ok := v[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-28s %16.6g %-7s %-5s %s\n", d.name, x, d.unit, d.kind, d.moves)
	}
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// batchMetrics fills the end-to-end metrics of a batch workload from its
// measured runs: wall clocks and program-side CPU times (s), peak RSS (MB)
// and set-up CPU times (s). work is the server-intervals one run simulates;
// perRun the scheme runs it holds.
func batchMetrics(v values, walls, cpus, rss, setups []float64, work, perRun float64) {
	med, cpu := median(walls), median(cpus)
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = median(rss)
	v["server_intervals_per_cpu_s"] = work / cpu
	v["server_intervals_per_s"] = work / med
	v["run_latency_p50_ms"] = med * 1e3
	v["run_latency_p99_ms"] = percentile(walls, 0.99) * 1e3
	v["capacity_runs_per_s"] = perRun / med
}

// zeroServeLayer fills the serve and loadgen metrics of a workload that sends
// no requests: none were made, so each count and time is zero.
func zeroServeLayer(v values) {
	for _, d := range metricDefs {
		if strings.HasPrefix(d.name, "serve.") || strings.HasPrefix(d.name, "loadgen.") {
			v[d.name] = 0
		}
	}
}
