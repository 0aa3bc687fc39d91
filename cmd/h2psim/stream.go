package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// errHalted is the command-level signal that every in-flight run stopped at
// its -halt-after boundary with a checkpoint on disk. main exits with
// haltExitCode so scripts (and the resume tests) can tell a clean halt from
// a failure.
var errHalted = errors.New("h2psim: halted at checkpoint boundary (resume with -resume)")

// haltExitCode is the process exit code for a clean -halt-after stop.
const haltExitCode = 3

// streamSpec is one trace the streaming path evaluates: a display class, a
// coordinator key, the trace's source — opened once per invocation and
// shared by every pending scheme run through trace.Tee — and the trace's
// meta for journal manifests.
type streamSpec struct {
	name  string
	class trace.Class
	src   trace.Source
	meta  trace.Meta
}

// streamSpecs builds the run list: the single -trace CSV, or the three
// synthetic classes with the canonical per-class seed schedule
// (trace.CanonicalSeed). The caller owns the opened sources (see closeSpecs).
func streamSpecs(opt runOptions) ([]streamSpec, error) {
	if opt.traceFile != "" {
		src, err := trace.OpenCSVFile(opt.traceFile)
		if err != nil {
			return nil, err
		}
		m := src.Meta()
		return []streamSpec{{name: m.Name, class: m.Class, src: src, meta: m}}, nil
	}
	cfgs := trace.CanonicalConfigs(opt.servers)
	specs := make([]streamSpec, 0, len(cfgs))
	for i, cfg := range cfgs {
		g, err := trace.NewGeneratorSource(cfg, trace.CanonicalSeed(opt.seed, i))
		if err != nil {
			return nil, err
		}
		specs = append(specs, streamSpec{name: g.Meta().Name, class: cfg.Class, src: g, meta: g.Meta()})
	}
	return specs, nil
}

// closeSpecs closes every source still owned by specs: those whose runs
// never started, because every scheme was already done or an earlier error
// ended the invocation.
func closeSpecs(specs []streamSpec) {
	for _, sp := range specs {
		if c, ok := sp.src.(io.Closer); ok {
			c.Close()
		}
	}
}

// runKey names one trace x scheme run inside the checkpoint file.
func runKey(name string, scheme sched.Scheme) string {
	return name + "/" + string(scheme)
}

// hostEnv captures the process environment once; every journal manifest of
// an invocation shares it.
var hostEnv = sync.OnceValue(obs.CaptureEnvironment)

// journalRecorder opens one run's journal envelope — its manifest is written
// immediately — and returns nil when journaling is off. The recorder rides
// the run as its core.RunObserver; results stay bit-identical either way.
func journalRecorder(opt runOptions, sp streamSpec, scheme sched.Scheme) *obs.RunRecorder {
	if opt.rec == nil {
		return nil
	}
	m := obs.Manifest{
		RunID:           opt.runID,
		Trace:           sp.name,
		Class:           string(sp.class),
		Servers:         sp.meta.Servers,
		Intervals:       sp.meta.Intervals,
		IntervalSeconds: sp.meta.Interval.Seconds(),
		Config: obs.RunConfig{
			Servers:               sp.meta.Servers,
			ServersPerCirculation: opt.circ,
			Scheme:                string(scheme),
			Workers:               core.ResolveParallelism(opt.workers),
			Shards:                opt.shards,
			DecisionQuantum:       opt.quantum,
			Seed:                  opt.seed,
			FaultSeed:             opt.faultSeed,
			Streaming:             true,
			HeatReuse:             opt.reuse,
			StorageWh:             opt.storageWh,
		},
		Env: hostEnv(),
	}
	if !opt.faults.Empty() {
		m.Config.FaultPlan = opt.faults.String()
	}
	if opt.env != nil {
		m.Config.EnvKind = opt.env.Name()
		if opt.env.Name() == "seasonal" {
			m.Config.EnvDetail = fmt.Sprintf("seed=%d", opt.envSeed)
		} else {
			m.Config.EnvDetail = opt.env.Fingerprint()
		}
	}
	rr := obs.NewRunRecorder(opt.rec, m, 0)
	if !opt.faults.Empty() {
		rr.Event(obs.EventNote, 0, "fault plan active: "+opt.faults.String())
	}
	return rr
}

// checkpointEntry is one run's state in the checkpoint file: a completed
// Result or an in-progress engine checkpoint. The checkpoint carries no shard
// layout, so it resumes under any -workers/-shards count.
//
// Sharded is read-only: files written by builds with a separate sharded
// checkpoint format hold in-progress runs there, and its merged record is a
// complete engine checkpoint. New files never write it.
type checkpointEntry struct {
	Done       bool             `json:"done"`
	Result     *core.Result     `json:"result,omitempty"`
	Checkpoint *core.Checkpoint `json:"checkpoint,omitempty"`
	Sharded    *struct {
		Merged core.Checkpoint `json:"merged"`
	} `json:"sharded,omitempty"`
}

// checkDone rejects a done entry whose result cannot be this run's: a
// missing result, another trace or scheme, or — when the report prints the
// series — a series of the wrong length.
func (e *checkpointEntry) checkDone(meta trace.Meta, scheme sched.Scheme, keepSeries bool) error {
	r := e.Result
	switch {
	case r == nil:
		return errors.New("done without a result")
	case r.TraceName != meta.Name || r.Scheme != scheme:
		return fmt.Errorf("result is for %q/%s", r.TraceName, r.Scheme)
	case keepSeries && len(r.Intervals) != meta.Intervals:
		return fmt.Errorf("result holds %d of %d intervals (was the run started without the series?)",
			len(r.Intervals), meta.Intervals)
	}
	return nil
}

// resumePoint returns the entry's in-progress checkpoint, or nil.
func (e *checkpointEntry) resumePoint() *core.Checkpoint {
	switch {
	case e == nil:
		return nil
	case e.Checkpoint != nil:
		return e.Checkpoint
	case e.Sharded != nil:
		return &e.Sharded.Merged
	}
	return nil
}

// checkpointFile is the on-disk coordinator state.
type checkpointFile struct {
	Version int                         `json:"version"`
	Entries map[string]*checkpointEntry `json:"entries"`
}

// coordinator serializes the concurrent runs' checkpoint writes into one
// JSON file, replaced atomically (write-temp-then-rename) so a kill can
// never leave a torn file behind.
type coordinator struct {
	mu   sync.Mutex
	path string
	file checkpointFile
}

// newCoordinator opens (or initializes) the checkpoint file at path. With
// resume set, a missing file is an error — there is nothing to resume.
func newCoordinator(path string, resume bool) (*coordinator, error) {
	c := &coordinator{path: path, file: checkpointFile{
		Version: core.CheckpointVersion,
		Entries: map[string]*checkpointEntry{},
	}}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if resume {
			return nil, fmt.Errorf("h2psim: -resume: no checkpoint file at %s", path)
		}
		return c, nil
	case err != nil:
		return nil, err
	}
	if !resume {
		// A fresh (non-resume) run starts over; the stale file is replaced
		// at the first checkpoint write.
		return c, nil
	}
	if err := json.Unmarshal(data, &c.file); err != nil {
		return nil, fmt.Errorf("h2psim: checkpoint file %s: %w", path, err)
	}
	if c.file.Version != core.CheckpointVersion {
		return nil, fmt.Errorf("h2psim: checkpoint file %s is version %d, this build speaks %d",
			path, c.file.Version, core.CheckpointVersion)
	}
	if c.file.Entries == nil {
		c.file.Entries = map[string]*checkpointEntry{}
	}
	return c, nil
}

// entry returns the stored state for key, or nil.
func (c *coordinator) entry(key string) *checkpointEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file.Entries[key]
}

// setCheckpoint records an in-progress run's engine checkpoint.
func (c *coordinator) setCheckpoint(key string, cp *core.Checkpoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.file.Entries[key] = &checkpointEntry{Checkpoint: cp}
	return c.flushLocked()
}

// setDone records a completed run's full result.
func (c *coordinator) setDone(key string, res *core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.file.Entries[key] = &checkpointEntry{Done: true, Result: res}
	return c.flushLocked()
}

// flushLocked atomically and durably replaces the checkpoint file with the
// current state: the temp file is synced before the rename, and the
// directory after it, so a crash leaves either the old file or the new one.
func (c *coordinator) flushLocked() error {
	data, err := json.Marshal(&c.file)
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.path)
	tmp, err := os.CreateTemp(dir, ".h2psim-checkpoint-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// keepSeries reports whether the runs retain their interval series, which
// -series and -series-out print.
func (o runOptions) keepSeries() bool { return o.series || o.seriesOut != "" }

// streamSchemes is the fixed scheme order of the comparison tables.
var streamSchemes = [2]sched.Scheme{sched.Original, sched.LoadBalance}

// run evaluates every trace under both schemes and prints the report. Every
// trace is pulled through a trace.Source, runs checkpoint at interval
// boundaries when -checkpoint is set, and a -resume invocation continues from
// the file and prints output byte-identical to an uninterrupted run.
func run(ctx context.Context, out io.Writer, opt runOptions) error {
	specs, err := streamSpecs(opt)
	if err != nil {
		return err
	}
	defer closeSpecs(specs)
	var coord *coordinator
	if opt.checkpoint != "" {
		if coord, err = newCoordinator(opt.checkpoint, opt.resume); err != nil {
			return err
		}
	} else if opt.resume {
		return errors.New("h2psim: -resume requires -checkpoint")
	}

	cfg := core.DefaultConfig(sched.Original)
	cfg.ServersPerCirculation = opt.circ
	cfg.Workers = opt.workers
	if opt.shards > 0 {
		cfg.Workers = opt.shards
	}
	cfg.DecisionQuantum = opt.quantum
	cfg.Telemetry = opt.telemetry
	cfg.Faults = opt.faults
	cfg.FaultSeed = opt.faultSeed
	opt.applyEnv(&cfg)

	fleet := core.NewFleet()
	results := make(map[string][2]*core.Result)
	halted := false
	for k := range specs {
		sp := specs[k]
		var pair [2]*core.Result
		var runs []core.SourceRun
		var slots []int
		var recs []*obs.RunRecorder
		for si, scheme := range streamSchemes {
			key := runKey(sp.name, scheme)
			var entry *checkpointEntry
			if coord != nil {
				entry = coord.entry(key)
			}
			if entry != nil && entry.Done {
				if err := entry.checkDone(sp.meta, scheme, opt.keepSeries()); err != nil {
					return fmt.Errorf("h2psim: checkpoint entry %s: %w", key, err)
				}
				pair[si] = entry.Result
				continue
			}
			rr := journalRecorder(opt, sp, scheme)
			runs = append(runs, core.SourceRun{Scheme: scheme, Opts: runOpts(key, entry, coord, rr, opt)})
			slots = append(slots, si)
			recs = append(recs, rr)
		}
		if len(runs) > 0 {
			// One decode feeds every pending scheme run; the runs now own
			// the source and close it through their branches.
			branches := trace.Tee(sp.src, len(runs))
			specs[k].src = nil
			for j := range runs {
				b := branches[j]
				runs[j].Open = func() (trace.Source, error) { return b, nil }
			}
			rs, err := fleet.RunSourcesContext(ctx, cfg, runs)
			if err != nil && !errors.Is(err, core.ErrHalted) {
				return err
			}
			if errors.Is(err, core.ErrHalted) {
				halted = true
			}
			for j, r := range rs {
				if r == nil {
					continue
				}
				pair[slots[j]] = r
				recs[j].Done(r)
				if coord != nil {
					if err := coord.setDone(runKey(sp.name, streamSchemes[slots[j]]), r); err != nil {
						return err
					}
				}
			}
		}
		results[sp.name] = pair
	}
	if halted {
		return errHalted
	}
	printReport(out, specs, results, opt)

	if opt.seriesOut != "" {
		labels := make([]string, len(specs))
		byLabel := make(map[string][2]*core.Result, len(specs))
		for i, sp := range specs {
			labels[i] = string(sp.class)
			byLabel[string(sp.class)] = results[sp.name]
		}
		if err := writeToFile(opt.seriesOut, func(w io.Writer) error {
			return writeSeries(w, opt.seriesOut, labels, byLabel)
		}); err != nil {
			return err
		}
	}
	if opt.metricsOut != "" {
		if err := writeToFile(opt.metricsOut, opt.telemetry.WriteProm); err != nil {
			return err
		}
	}
	if opt.traceOut != "" {
		if err := writeToFile(opt.traceOut, opt.telemetry.WriteTrace); err != nil {
			return err
		}
	}
	return nil
}

// runOpts builds one scheme run's options: resumed from the run's stored
// checkpoint, if any, and checkpointing into the coordinator.
func runOpts(key string, entry *checkpointEntry, coord *coordinator, rr *obs.RunRecorder, opt runOptions) *core.RunOptions {
	ro := &core.RunOptions{KeepSeries: opt.keepSeries(), HaltAfter: opt.haltAfter, Resume: entry.resumePoint()}
	if rr != nil {
		ro.Observer = rr
	}
	if coord != nil {
		ro.Checkpoint = &core.CheckpointOptions{
			Every: opt.checkpointEvery,
			Write: func(cp *core.Checkpoint) error { return coord.setCheckpoint(key, cp) },
		}
	}
	return ro
}

// printReport renders the Fig. 14/15 tables, the fault table and the
// environment table. The meanU column is the run's incrementally aggregated
// MeanAvgUtilization.
func printReport(out io.Writer, specs []streamSpec, results map[string][2]*core.Result, opt runOptions) {
	fmt.Fprintln(out, "Fig. 14 — generated electricity per CPU (W):")
	fmt.Fprintf(out, "%-12s %-10s %-10s %-10s %-10s %-10s %-10s\n",
		"trace", "orig avg", "orig peak", "lb avg", "lb peak", "gain%", "meanU")
	var sumOrig, sumLB float64
	for _, sp := range specs {
		r := results[sp.name]
		orig, lb := r[0], r[1]
		gain := (float64(lb.AvgTEGPowerPerServer)/float64(orig.AvgTEGPowerPerServer) - 1) * 100
		fmt.Fprintf(out, "%-12s %-10.3f %-10.3f %-10.3f %-10.3f %-10.2f %-10.3f\n",
			sp.class,
			float64(orig.AvgTEGPowerPerServer), float64(orig.PeakTEGPowerPerServer),
			float64(lb.AvgTEGPowerPerServer), float64(lb.PeakTEGPowerPerServer),
			gain, orig.MeanAvgUtilization)
		sumOrig += float64(orig.AvgTEGPowerPerServer)
		sumLB += float64(lb.AvgTEGPowerPerServer)
		if opt.series {
			fmt.Fprintf(out, "  interval series (%s): t, origW, lbW, avgU, maxU\n", sp.class)
			for i := range orig.Intervals {
				fmt.Fprintf(out, "  %4d %7.3f %7.3f %6.3f %6.3f\n", i,
					float64(orig.Intervals[i].TEGPowerPerServer),
					float64(lb.Intervals[i].TEGPowerPerServer),
					orig.Intervals[i].AvgUtilization,
					orig.Intervals[i].MaxUtilization)
			}
		}
	}
	n := float64(len(specs))
	fmt.Fprintf(out, "%-12s %-10.3f %-10s %-10.3f %-10s %-10.2f\n",
		"average", sumOrig/n, "-", sumLB/n, "-", (sumLB/sumOrig-1)*100)

	fmt.Fprintln(out)
	fmt.Fprintln(out, "Fig. 15 — power reusing efficiency (PRE, %):")
	fmt.Fprintf(out, "%-12s %-10s %-10s\n", "trace", "orig", "lb")
	var preOrig, preLB float64
	for _, sp := range specs {
		r := results[sp.name]
		fmt.Fprintf(out, "%-12s %-10.2f %-10.2f\n", sp.class, r[0].PRE*100, r[1].PRE*100)
		preOrig += r[0].PRE
		preLB += r[1].PRE
	}
	fmt.Fprintf(out, "%-12s %-10.2f %-10.2f\n", "average", preOrig/n*100, preLB/n*100)

	if !opt.faults.Empty() {
		fmt.Fprintln(out)
		fmt.Fprintf(out, "Fault injection — plan %s, seed %d:\n", opt.faults, opt.faultSeed)
		fmt.Fprintf(out, "%-12s %-8s %-14s %-12s %-12s %-12s %-10s %-10s\n",
			"trace", "scheme", "degraded_intv", "open_teg", "degr_teg", "sensor_fb", "droops", "retries")
		for _, sp := range specs {
			r := results[sp.name]
			for si, name := range [2]string{"orig", "lb"} {
				f := r[si].Faults
				fmt.Fprintf(out, "%-12s %-8s %-14d %-12d %-12d %-12d %-10d %-10d\n",
					sp.class, name, f.DegradedIntervals, f.OpenTEG, f.DegradedTEG,
					f.SensorFallbacks, f.PumpDroops, f.StepRetries)
			}
		}
	}

	if opt.envActive() {
		labels := make([]string, len(specs))
		pairs := make([][2]*core.Result, len(specs))
		for i, sp := range specs {
			labels[i] = string(sp.class)
			pairs[i] = results[sp.name]
		}
		printEnvReport(out, labels, pairs, opt)
	}
}
