package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/shard"
	"github.com/h2p-sim/h2p/internal/trace"
)

// stageRun is one configuration driven through the single-goroutine stage
// loop: a fresh source per pass, the engine configuration, and an optional
// journal file the loop's observer writes.
type stageRun struct {
	name    string
	cfg     core.Config
	open    func() (trace.Source, error)
	journal string // "" runs without an observer
	// srcBytes is the bytes the source reads per full pass (the file size
	// for CSV; 8 per value for the generator), for trace.mb_per_s.
	srcBytes int64
}

// stageTimes is one stage-loop pass, or the sum of several. With timing off
// only wall and the counts are set.
type stageTimes struct {
	open                               time.Duration
	decode, step, merge, fold, observe time.Duration
	wall                               time.Duration
	// values counts server utilizations decoded; circIntervals counts
	// circulation-intervals stepped; srcBytes the bytes the source read.
	values, circIntervals, srcBytes int64
	journalBytes                    int64
	// servers and intervals are the (last) pass's shape.
	servers, intervals int
}

// add sums two passes.
func (st stageTimes) add(b stageTimes) stageTimes {
	st.open += b.open
	st.decode += b.decode
	st.step += b.step
	st.merge += b.merge
	st.fold += b.fold
	st.observe += b.observe
	st.wall += b.wall
	st.values += b.values
	st.circIntervals += b.circIntervals
	st.srcBytes += b.srcBytes
	st.journalBytes += b.journalBytes
	st.servers, st.intervals = b.servers, b.intervals
	return st
}

// sum is the total of the in-loop stage times.
func (st stageTimes) sum() time.Duration {
	return st.decode + st.step + st.merge + st.fold + st.observe
}

// closeSource releases a source that owns a file.
func closeSource(src trace.Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close() //nolint:errcheck // read-only source
	}
}

// runStages drives sr through the stages in order, in one goroutine:
// NextColumn, ShardRunner.Step over all circulations, MergeInterval, Fold,
// and the journal observer when sr journals. With timed set every stage
// boundary reads the clock, so the stage times plus the residual (the error
// checks between stages, the loop itself and Finalize) equal the loop's wall
// clock. The returned Result is the Aggregator's Finalize.
func runStages(sr stageRun, timed bool) (*core.Result, stageTimes, error) {
	var st stageTimes
	t0 := time.Now()
	src, err := sr.open()
	if err != nil {
		return nil, st, err
	}
	st.open = time.Since(t0)
	defer closeSource(src)
	meta := src.Meta()
	eng, err := core.NewEngine(sr.cfg)
	if err != nil {
		return nil, st, err
	}
	n := sr.cfg.Circulations(meta.Servers)
	runner, err := eng.NewShardRunner(meta.Servers, 0, n)
	if err != nil {
		return nil, st, err
	}
	agg := core.NewAggregator(meta, sr.cfg, false)
	var rec *obs.Recorder
	var rr *obs.RunRecorder
	if sr.journal != "" {
		if rec, err = obs.Create(sr.journal, false); err != nil {
			return nil, st, err
		}
		rr = obs.NewRunRecorder(rec, manifestFor(sr, meta), 0)
		rr.AttachCacheStats(runner.CacheStats)
	}
	st.servers, st.intervals = meta.Servers, meta.Intervals
	st.values = int64(meta.Servers) * int64(meta.Intervals)
	st.circIntervals = int64(n) * int64(meta.Intervals)
	st.srcBytes = sr.srcBytes
	col := make([]float64, meta.Servers)
	parts := make([]core.CirculationInterval, n)
	errs := make([]error, n)

	start := time.Now()
	last := start
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(last)
		last = now
	}
	for i := 0; i < meta.Intervals; i++ {
		got, err := src.NextColumn(col)
		if timed {
			lap(&st.decode)
		}
		if err != nil {
			return nil, st, fmt.Errorf("%s: source at interval %d: %w", sr.name, i, err)
		}
		if got != i {
			return nil, st, fmt.Errorf("%s: source delivered interval %d, want %d", sr.name, got, i)
		}
		if timed {
			last = time.Now()
		}
		runner.Step(col, i, parts, errs)
		if timed {
			lap(&st.step)
		}
		if err := errors.Join(errs...); err != nil {
			return nil, st, fmt.Errorf("%s: interval %d: %w", sr.name, i, err)
		}
		if timed {
			last = time.Now()
		}
		ir := core.MergeInterval(col, parts)
		if timed {
			lap(&st.merge)
		}
		agg.Fold(ir)
		if timed {
			lap(&st.fold)
		}
		if rr != nil {
			rr.ObserveInterval(i, ir)
			if timed {
				lap(&st.observe)
			}
		}
	}
	res := agg.Finalize()
	if rr != nil {
		if timed {
			last = time.Now()
		}
		rr.Done(res)
		err := rec.Close()
		if timed {
			lap(&st.observe)
		}
		if err != nil {
			return nil, st, fmt.Errorf("%s: journal: %w", sr.name, err)
		}
		fi, err := os.Stat(sr.journal)
		if err != nil {
			return nil, st, err
		}
		st.journalBytes = fi.Size()
	}
	st.wall = time.Since(start)
	return res, st, nil
}

// manifestFor is the stage loop's journal manifest.
func manifestFor(sr stageRun, meta trace.Meta) obs.Manifest {
	m := obs.Manifest{
		RunID:           "perfbench",
		Trace:           meta.Name,
		Class:           string(meta.Class),
		Servers:         meta.Servers,
		Intervals:       meta.Intervals,
		IntervalSeconds: meta.Interval.Seconds(),
		Config: obs.RunConfig{
			Servers:               meta.Servers,
			ServersPerCirculation: sr.cfg.ServersPerCirculation,
			Scheme:                string(sr.cfg.Scheme),
			Workers:               1,
			DecisionQuantum:       sr.cfg.DecisionQuantum,
			FaultSeed:             sr.cfg.FaultSeed,
			Streaming:             true,
		},
	}
	if !sr.cfg.Faults.Empty() {
		m.Config.FaultPlan = sr.cfg.Faults.String()
	}
	return m
}

// pipelineProbe observes a real shard.RunSource run: it implements
// core.RunObserver plus both stats sinks so the pipeline hands it its timing
// and decision-cache counters.
type pipelineProbe struct {
	shardStats func() shard.Stats
	cacheStats func() (hits, calls uint64)
}

func (p *pipelineProbe) ObserveInterval(int, core.IntervalResult) {}
func (p *pipelineProbe) ObserveCheckpoint(int)                    {}
func (p *pipelineProbe) ObserveResume(int)                        {}
func (p *pipelineProbe) ObserveHalt(int)                          {}
func (p *pipelineProbe) AttachShardStats(f func() shard.Stats)    { p.shardStats = f }
func (p *pipelineProbe) AttachCacheStats(f func() (uint64, uint64)) {
	p.cacheStats = f
}

// pipeStats is the shard pipeline's counters, summed over runs.
type pipeStats struct {
	decode, mergeWait float64
	waits, intervals  int64
	step              []float64 // per shard
	hits, calls       uint64
}

// pipelineCounters runs sr's configuration through shard.RunSource with
// shards shards, adds the pipeline and cache counters read at the end of the
// run to ps, and returns the run's result.
func pipelineCounters(sr stageRun, shards int, ps *pipeStats) (*core.Result, error) {
	src, err := sr.open()
	if err != nil {
		return nil, err
	}
	defer closeSource(src)
	p := &pipelineProbe{}
	res, err := shard.RunSource(sr.cfg, src, &shard.Options{Shards: shards, Observer: p})
	if err != nil {
		return nil, err
	}
	if p.shardStats == nil || p.cacheStats == nil {
		return nil, errors.New("shard pipeline attached no stats to its observer")
	}
	s := p.shardStats()
	ps.decode += s.DecodeSeconds
	ps.mergeWait += s.MergeWaitSeconds
	ps.waits += s.MergeWaits
	ps.intervals += int64(src.Meta().Intervals)
	if ps.step == nil {
		ps.step = make([]float64, len(s.StepSeconds))
	}
	if len(ps.step) != len(s.StepSeconds) {
		return nil, fmt.Errorf("shard pipeline ran %d shards, want %d", len(s.StepSeconds), len(ps.step))
	}
	for i, x := range s.StepSeconds {
		ps.step[i] += x
	}
	hits, calls := p.cacheStats()
	ps.hits += hits
	ps.calls += calls
	return res, nil
}

// fill writes the shard and cache metrics.
func (ps *pipeStats) fill(v values) {
	lo, hi := ps.step[0], ps.step[0]
	for _, x := range ps.step {
		lo, hi = min(lo, x), max(hi, x)
	}
	v["shard.decode_s"] = ps.decode
	v["shard.merge_wait_s"] = ps.mergeWait
	v["shard.merge_wait_frac"] = float64(ps.waits) / float64(ps.intervals)
	v["shard.step_s_max"] = hi
	v["shard.step_skew"] = hi / lo
	v["sched.cache_hits"] = float64(ps.hits)
	v["sched.cache_calls"] = float64(ps.calls)
	v["sched.cache_hit_ratio"] = float64(ps.hits) / float64(ps.calls)
}

// decidePass times Controller.DecideBatch alone over every column of sr's
// source, on a fresh engine, with the decode outside the timed calls. The
// cold side comes from the configuration's environment, exactly as the
// engine's batch step passes it.
func decidePass(sr stageRun) (time.Duration, int64, error) {
	src, err := sr.open()
	if err != nil {
		return 0, 0, err
	}
	defer closeSource(src)
	meta := src.Meta()
	eng, err := core.NewEngine(sr.cfg)
	if err != nil {
		return 0, 0, err
	}
	ctl := eng.Controller()
	envSrc := sr.cfg.EnvSource()
	n := sr.cfg.Circulations(meta.Servers)
	ranges := make([]sched.Range, n)
	scrs := make([]*sched.Scratch, n)
	for ci := range ranges {
		lo, hi := sr.cfg.CirculationSpan(meta.Servers, ci)
		ranges[ci] = sched.Range{Lo: lo, Hi: hi}
		scrs[ci] = new(sched.Scratch)
	}
	decs := make([]sched.Decision, n)
	var bs sched.BatchScratch
	col := make([]float64, meta.Servers)
	var busy time.Duration
	for i := 0; i < meta.Intervals; i++ {
		if _, err := src.NextColumn(col); err != nil {
			return 0, 0, err
		}
		cold := envSrc.At(i).ColdSide
		t := time.Now()
		err := ctl.DecideBatchCold(col, ranges, sr.cfg.Scheme, cold, &bs, scrs, decs)
		busy += time.Since(t)
		if err != nil {
			return 0, 0, err
		}
	}
	return busy, int64(meta.Servers) * int64(meta.Intervals), nil
}

// layerMetrics fills the trace, sched, core, obs and bench metrics of the
// traced passes and their untimed twins. decide is the decidePass busy time
// over decided server utilizations of the same columns.
func layerMetrics(v values, traced, untimed stageTimes, faults core.FaultSummary, decide time.Duration, decided int64) {
	v["trace.open_s"] = seconds(traced.open)
	v["trace.decode_s"] = seconds(traced.decode)
	v["trace.values_per_s"] = float64(traced.values) / seconds(traced.decode)
	v["trace.mb_per_s"] = float64(traced.srcBytes) / 1e6 / seconds(traced.decode)
	v["sched.decide_s"] = seconds(decide)
	v["sched.decide_ns_per_server"] = float64(decide.Nanoseconds()) / float64(decided)
	v["core.step_s"] = seconds(traced.step)
	v["core.physics_s"] = seconds(traced.step - decide)
	v["core.merge_s"] = seconds(traced.merge)
	v["core.fold_s"] = seconds(traced.fold)
	v["core.step_retries"] = float64(faults.StepRetries)
	v["core.degraded_frac"] = float64(faults.DegradedIntervals) / float64(traced.circIntervals)
	v["obs.observe_s"] = seconds(traced.observe)
	v["obs.journal_bytes"] = float64(traced.journalBytes)
	v["bench.residual_s"] = seconds(traced.wall - traced.sum())
	v["bench.trace_overhead_frac"] = seconds(traced.wall)/seconds(untimed.wall) - 1
}

// printStageTable writes the traced pass's stage rows, their sum, the traced
// wall clock, the residual and the tracing overhead.
func printStageTable(w io.Writer, title string, st, untimed stageTimes) {
	wall := seconds(st.wall)
	fmt.Fprintf(w, "stage table: %s (%d servers x %d intervals, one goroutine)\n", title, st.servers, st.intervals)
	row := func(name string, d time.Duration) {
		fmt.Fprintf(w, "  %-34s %12.6f s %6.1f%%\n", name, seconds(d), 100*seconds(d)/wall)
	}
	row("1 trace   Source.NextColumn", st.decode)
	row("2 core    ShardRunner.Step", st.step)
	row("3 core    MergeInterval", st.merge)
	row("4 core    Aggregator.Fold", st.fold)
	row("5 obs     RunObserver (journal)", st.observe)
	row("  sum of stages", st.sum())
	row("  traced wall clock", st.wall)
	row("  bench.residual_s", st.wall-st.sum())
	row("  untimed wall clock (same loop)", untimed.wall)
	fmt.Fprintf(w, "  %-34s %12.6f\n", "bench.trace_overhead_frac", wall/seconds(untimed.wall)-1)
}

// tracedLayers runs, for every stage run, the untimed stage loop (the
// reference, returned in refs), the traced stage loop, the shard pipeline and
// the decide pass, sums each layer over the runs, and checks that the three
// paths agree.
func tracedLayers(o *options, t *tally, runs []stageRun, shards int, refs []*core.Result, v values) error {
	var traced, untimed stageTimes
	var faults core.FaultSummary
	var decide time.Duration
	var decided int64
	ps := &pipeStats{}
	for i, sr := range runs {
		ref, ut, err := runStages(sr, false)
		if err != nil {
			return err
		}
		res, st, err := runStages(sr, true)
		if err != nil {
			return err
		}
		checkSame(t, sr.name+": traced vs untimed stage loop", res, ref)
		pres, err := pipelineCounters(sr, shards, ps)
		if err != nil {
			return err
		}
		checkSame(t, sr.name+": shard.RunSource vs stage loop", pres, ref)
		d, n, err := decidePass(sr)
		if err != nil {
			return err
		}
		refs[i] = ref
		printStageTable(o.out, sr.name, st, ut)
		traced, untimed = traced.add(st), untimed.add(ut)
		decide += d
		decided += n
		faults.StepRetries += res.Faults.StepRetries
		faults.DegradedIntervals += res.Faults.DegradedIntervals
	}
	if len(runs) > 1 {
		printStageTable(o.out, fmt.Sprintf("sum over %d runs", len(runs)), traced, untimed)
	}
	layerMetrics(v, traced, untimed, faults, decide, decided)
	ps.fill(v)
	return nil
}

// checkSame records whether two results are identical, field for field:
// their JSON encodings (exact for every float64) must match byte for byte.
func checkSame(t *tally, what string, got, want *core.Result) {
	g, err := json.Marshal(got)
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.fail("%s: %v", what, err)
		return
	}
	if !bytes.Equal(g, w) {
		t.fail("%s: results differ in %s", what, firstDiff(g, w))
		return
	}
	t.ok()
}

// firstDiff names the first top-level field in which two JSON objects
// differ, with both values.
func firstDiff(a, b []byte) string {
	var ma, mb map[string]json.RawMessage
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return "their encoding"
	}
	keys := make([]string, 0, len(ma))
	for k := range ma {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(ma[k], mb[k]) {
			return fmt.Sprintf("%s: %s vs %s", k, ma[k], mb[k])
		}
	}
	return "their field sets"
}
