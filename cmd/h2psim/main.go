// Command h2psim runs the H2P trace-driven evaluation (Sec. V-C of the
// paper): it generates (or loads) the three workload traces, simulates the
// datacenter under TEG_Original and TEG_LoadBalance, and prints the Fig. 14
// power table and the Fig. 15 PRE table.
//
// Usage:
//
//	h2psim [-servers 1000] [-circ 25] [-seed 42] [-workers 0] [-trace file.csv] [-series]
//	       [-shards N] [-telemetry-addr :9102] [-metrics-out run.metrics] [-trace-out run.trace]
//	       [-series-out series.csv] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Every trace is pulled through a trace.Source one column at a time, so the
// working set is O(servers) whatever the trace length, and the two schemes
// run concurrently over one shared decode. Each run partitions its water
// circulations across -workers engine shards (0 = all CPUs) that step in
// parallel behind a prefetching decoder; -shards N is an alias for -workers
// N. Results are bit-identical for any count. Interrupting the process
// (SIGINT/SIGTERM) cancels the runs promptly.
//
// Telemetry: -telemetry-addr serves live Prometheus-style metrics
// (/metrics), a JSON snapshot (/metrics.json) and the span trace (/trace)
// while the simulation runs; -metrics-out and -trace-out write the same
// exposition text and span trace to files at exit; -series-out exports the
// per-interval harvested-power and outlet-temperature time series (CSV, or
// JSON when the path ends in .json). All four are off by default, and the
// disabled path adds zero overhead to the simulation.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/profiling"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/telemetry"
)

func main() {
	servers := flag.Int("servers", 1000, "number of servers in the simulated cluster")
	circ := flag.Int("circ", 25, "servers per water circulation")
	seed := flag.Int64("seed", 42, "workload generator seed")
	workers := flag.Int("workers", 0, "engine shards per run "+core.ParallelismFlagHelp)
	shards := flag.Int("shards", -1, "alias for -workers that takes precedence over it; -1 = unset "+core.ParallelismFlagHelp)
	quantum := flag.Float64("quantum", 0, "decision quantum: plane utilizations snap to multiples of it (0 = exact, paper-faithful; try 1/512)")
	traceFile := flag.String("trace", "", "optional CSV trace file (replaces the synthetic traces)")
	series := flag.Bool("series", false, "also print the per-interval power series")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry (/metrics, /metrics.json, /trace) on this address")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-style metrics to this file at exit")
	traceOut := flag.String("trace-out", "", "write the span trace (JSON) to this file at exit")
	seriesOut := flag.String("series-out", "", "write the per-interval power/outlet series to this file (CSV, or JSON if it ends in .json)")
	faultPlan := flag.String("fault-plan", "", "fault plan: JSON file or 'kind:rate[:severity],...' DSL (empty = fault-free)")
	faultSeed := flag.Int64("fault-seed", 1, "fault activation seed")
	envName := flag.String("env", "", "facility environment: 'constant' (default), 'seasonal', or a JSON profile path")
	envSeed := flag.Int64("env-seed", 1, "seasonal environment jitter seed")
	reuse := flag.Bool("reuse", false, "divert heat to a district-heating reuse sink when demand and outlet grade allow")
	storageWh := flag.Float64("storage-wh", 0, "buffer harvested power in a hybrid SC+battery store of this total capacity (0 = none)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: runs snapshot themselves here at interval boundaries")
	checkpointEvery := flag.Int("checkpoint-every", 256, "checkpoint cadence in intervals")
	resume := flag.Bool("resume", false, "resume the runs recorded in -checkpoint; output is byte-identical to an uninterrupted run")
	haltAfter := flag.Int("halt-after", 0, "halt every run at this interval boundary after checkpointing, exit "+fmt.Sprint(haltExitCode)+" (testing hook)")
	journal := flag.String("journal", "", "write a structured run journal (JSONL) to this file; -resume appends to it")
	runID := flag.String("run-id", "", "run id recorded in the journal and the live /runs endpoints (default: UTC start timestamp)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	plan, err := fault.ParsePlan(*faultPlan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2psim:", err)
		os.Exit(1)
	}

	envSrc, err := buildEnv(*envName, *envSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2psim:", err)
		os.Exit(1)
	}
	if *storageWh < 0 {
		fmt.Fprintf(os.Stderr, "h2psim: -storage-wh must be non-negative, got %g\n", *storageWh)
		os.Exit(1)
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2psim:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *shards < -1 {
		fmt.Fprintln(os.Stderr, "h2psim: -shards must be -1 (unset), 0 (all CPUs) or positive")
		os.Exit(1)
	}
	shardCount := 0
	if *shards >= 0 {
		// Resolve now so runOptions carries a concrete shard count and
		// -shards 0 means exactly what -workers 0 means: all CPUs.
		shardCount = core.ResolveParallelism(*shards)
	}
	opt := runOptions{
		servers: *servers, circ: *circ, seed: *seed,
		workers: *workers, quantum: *quantum,
		traceFile: *traceFile, series: *series,
		metricsOut: *metricsOut, traceOut: *traceOut, seriesOut: *seriesOut,
		faults: plan, faultSeed: *faultSeed,
		env: envSrc, envSeed: *envSeed,
		reuse: *reuse, storageWh: *storageWh,
		shards:     shardCount,
		checkpoint: *checkpoint, checkpointEvery: *checkpointEvery,
		resume: *resume, haltAfter: *haltAfter,
		runID: *runID,
	}
	if opt.runID == "" {
		opt.runID = time.Now().UTC().Format("20060102T150405Z")
	}
	if *telemetryAddr != "" || *metricsOut != "" || *traceOut != "" {
		opt.telemetry = telemetry.New()
	}
	// The journal recorder also feeds the live /runs endpoints: with only
	// -telemetry-addr set, records flow to the hub and are discarded on disk.
	switch {
	case *journal != "":
		opt.rec, err = obs.Create(*journal, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "h2psim:", err)
			os.Exit(1)
		}
	case *telemetryAddr != "":
		opt.rec = obs.NewRecorder(io.Discard)
	}
	var srv *telemetry.Server
	var hub *obs.Hub
	if *telemetryAddr != "" {
		hub = obs.NewHub()
		opt.rec.SetHub(hub)
		stopSelf := opt.telemetry.StartSelfStats(0)
		defer stopSelf()
		srv, err = telemetry.ServeHandler(*telemetryAddr, obs.Handler(hub, opt.telemetry.Handler()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "h2psim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "h2psim: telemetry at http://%s/metrics (runs at /runs)\n", srv.Addr())
	}
	runErr := run(ctx, os.Stdout, opt)
	if srv != nil {
		// Graceful, in explicit order: close the hub first so every SSE tail
		// receives a terminal shutdown frame and returns, then let the
		// listener drain in-flight scrapes before exit.
		hub.Shutdown()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		srv.Shutdown(sctx)
		cancel()
	}
	if err := opt.rec.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "h2psim: journal:", err)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "h2psim:", err)
	}
	if runErr != nil {
		if errors.Is(runErr, errHalted) {
			// errHalted already carries the command prefix; a clean halt is
			// not a failure, so it gets its own exit code.
			fmt.Fprintln(os.Stderr, runErr)
			os.Exit(haltExitCode)
		}
		fmt.Fprintln(os.Stderr, "h2psim:", runErr)
		os.Exit(1)
	}
}

// runOptions bundles the CLI configuration.
type runOptions struct {
	servers, circ int
	seed          int64
	workers       int
	quantum       float64
	traceFile     string
	series        bool
	// telemetry is non-nil when any telemetry flag asked for a registry.
	telemetry  *telemetry.Registry
	metricsOut string
	traceOut   string
	seriesOut  string
	// faults is the compiled-from-CLI fault plan; nil runs fault-free with
	// output bit-identical to a build without the fault layer.
	faults    *fault.Plan
	faultSeed int64
	// env is the facility environment source built from -env/-env-seed (nil =
	// the constant default, bit-identical to a build without the environment
	// layer); reuse and storageWh wire the heat-reuse sink and the hybrid
	// storage buffer into the run's energy balance.
	env       env.Source
	envSeed   int64
	reuse     bool
	storageWh float64
	// shards is the resolved -shards alias (0 when unset); when positive it
	// overrides workers as the engine's shard count. The journal manifest
	// records both as given.
	shards int
	// Checkpoint controls (stream.go).
	checkpoint      string
	checkpointEvery int
	resume          bool
	haltAfter       int
	// rec journals run progress (nil when neither -journal nor
	// -telemetry-addr asked for it); runID keys its records.
	rec   *obs.Recorder
	runID string
}

// seriesPoint is one interval of the -series-out export: harvested TEG
// power and mean circulation outlet temperature under both schemes — the
// axes of the paper's Fig. 7–11 — plus the utilization that drove them.
type seriesPoint struct {
	Trace      string  `json:"trace"`
	Interval   int     `json:"interval"`
	AvgUtil    float64 `json:"avg_util"`
	MaxUtil    float64 `json:"max_util"`
	OrigPowerW float64 `json:"orig_teg_w_per_server"`
	LBPowerW   float64 `json:"lb_teg_w_per_server"`
	OrigOutC   float64 `json:"orig_outlet_c"`
	LBOutC     float64 `json:"lb_outlet_c"`
}

// collectSeries flattens the per-interval results of every trace, in label
// order, into the export rows.
func collectSeries(labels []string, results map[string][2]*core.Result) []seriesPoint {
	var pts []seriesPoint
	for _, label := range labels {
		r, ok := results[label]
		if !ok {
			continue
		}
		orig, lb := r[0], r[1]
		for i := range orig.Intervals {
			pts = append(pts, seriesPoint{
				Trace:      label,
				Interval:   i,
				AvgUtil:    orig.Intervals[i].AvgUtilization,
				MaxUtil:    orig.Intervals[i].MaxUtilization,
				OrigPowerW: float64(orig.Intervals[i].TEGPowerPerServer),
				LBPowerW:   float64(lb.Intervals[i].TEGPowerPerServer),
				OrigOutC:   float64(orig.Intervals[i].MeanOutlet),
				LBOutC:     float64(lb.Intervals[i].MeanOutlet),
			})
		}
	}
	return pts
}

// writeSeries renders the interval series as CSV, or as a JSON array when
// the output path ends in .json.
func writeSeries(w io.Writer, path string, labels []string, results map[string][2]*core.Result) error {
	pts := collectSeries(labels, results)
	if strings.HasSuffix(path, ".json") {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(pts)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trace", "interval", "avg_util", "max_util",
		"orig_teg_w_per_server", "lb_teg_w_per_server", "orig_outlet_c", "lb_outlet_c"}); err != nil {
		return err
	}
	for _, p := range pts {
		rec := []string{
			p.Trace,
			strconv.Itoa(p.Interval),
			strconv.FormatFloat(p.AvgUtil, 'f', 4, 64),
			strconv.FormatFloat(p.MaxUtil, 'f', 4, 64),
			strconv.FormatFloat(p.OrigPowerW, 'f', 4, 64),
			strconv.FormatFloat(p.LBPowerW, 'f', 4, 64),
			strconv.FormatFloat(p.OrigOutC, 'f', 3, 64),
			strconv.FormatFloat(p.LBOutC, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// buildEnv resolves the -env flag: empty or "constant" keeps the nil default
// (bit-identical to a build without the environment layer), "seasonal" seeds
// the diurnal+annual model from -env-seed, and anything else is read as a
// JSON profile path — the CLI, unlike the serve API, may read local files.
func buildEnv(name string, seed int64) (env.Source, error) {
	switch name {
	case "", "constant":
		return nil, nil
	case "seasonal":
		if seed < 0 {
			return nil, fmt.Errorf("-env-seed must be non-negative, got %d", seed)
		}
		return env.DefaultSeasonal(uint64(seed)), nil
	default:
		return env.LoadProfile(name)
	}
}

// applyEnv wires the CLI's environment choices into an engine config. A
// default invocation leaves cfg untouched.
func (opt runOptions) applyEnv(cfg *core.Config) {
	if opt.env != nil {
		cfg.Env = opt.env
	}
	if opt.reuse {
		cfg.Reuse = heatreuse.DefaultSink()
	}
	if opt.storageWh > 0 {
		spec := storage.BufferForCapacity(opt.storageWh)
		cfg.Storage = &spec
	}
}

// envActive reports whether any environment flag moved off its default —
// the condition for the environment summary table, so default runs keep
// byte-identical stdout.
func (opt runOptions) envActive() bool {
	return opt.env != nil || opt.reuse || opt.storageWh > 0
}

// envDesc names the active environment for table headers and journals.
func (opt runOptions) envDesc() string {
	if opt.env == nil {
		return "constant"
	}
	if opt.env.Name() == "seasonal" {
		return fmt.Sprintf("seasonal (seed %d)", opt.envSeed)
	}
	return fmt.Sprintf("%s (%s)", opt.env.Name(), opt.env.Fingerprint())
}

// printEnvReport renders the facility-environment summary: the sampled
// cold-side/wet-bulb ranges, the heating season's extent, and the heat-reuse
// and storage accounting per trace x scheme. pairs follows labels' order.
func printEnvReport(out io.Writer, labels []string, pairs [][2]*core.Result, opt runOptions) {
	fmt.Fprintln(out)
	fmt.Fprintf(out, "Facility environment — %s:\n", opt.envDesc())
	fmt.Fprintf(out, "%-12s %-8s %-12s %-12s %-10s %-11s %-9s %-11s %-11s %-9s\n",
		"trace", "scheme", "cold_c", "wetbulb_c", "heat_intv", "reuse_kwh", "rev_usd", "sto_in_kwh", "sto_out_kwh", "final_wh")
	for i, label := range labels {
		for si, name := range [2]string{"orig", "lb"} {
			r := pairs[i][si]
			if r == nil {
				continue
			}
			e := r.Env
			fmt.Fprintf(out, "%-12s %-8s %-12s %-12s %-10d %-11.3f %-9.2f %-11.3f %-11.3f %-9.1f\n",
				label, name,
				fmt.Sprintf("%.1f..%.1f", float64(e.MinColdSide), float64(e.MaxColdSide)),
				fmt.Sprintf("%.1f..%.1f", float64(e.MinWetBulb), float64(e.MaxWetBulb)),
				e.HeatingIntervals,
				float64(r.ReusedHeat), float64(r.ReuseRevenue),
				float64(r.StorageStored), float64(r.StorageDelivered), r.StorageFinalWh)
		}
	}
}

// writeToFile creates path, runs fn against it, and surfaces the first
// error — including Close, so a full disk cannot pass silently.
func writeToFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
