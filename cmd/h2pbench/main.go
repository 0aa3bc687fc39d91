// Command h2pbench regenerates the paper's tables and figures: each
// experiment runs the corresponding simulation or measurement campaign and
// prints the same rows/series the paper reports.
//
// Usage:
//
//	h2pbench -list
//	h2pbench -exp fig14 [-servers 1000] [-seed 42]
//	h2pbench -exp all -csv results/
//	h2pbench -exp fig14 -workers 4  # four engine shards per run (bit-identical)
//	h2pbench -exp fig14 -telemetry-addr :9102 -metrics-out run.metrics
//	h2pbench -exp fig14 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Telemetry: -telemetry-addr serves live metrics (/metrics, /metrics.json,
// /trace) while the experiments run; -metrics-out and -trace-out write the
// exposition text and span trace to files at exit. When a registry is
// active, -report embeds its snapshot in the generated document; otherwise
// the report notes explicitly that telemetry was disabled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/experiments"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/profiling"
	"github.com/h2p-sim/h2p/internal/report"
	"github.com/h2p-sim/h2p/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	servers := flag.Int("servers", 1000, "cluster size for trace-driven experiments")
	seed := flag.Int64("seed", 42, "workload generator seed")
	workers := flag.Int("workers", 0, "engine shards per run "+core.ParallelismFlagHelp)
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	reportPath := flag.String("report", "", "write a markdown report of every experiment to this file and exit")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry (/metrics, /metrics.json, /trace) on this address")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-style metrics to this file at exit")
	traceOut := flag.String("trace-out", "", "write the span trace (JSON) to this file at exit")
	faultPlan := flag.String("fault-plan", "", "fault plan for trace-driven experiments: JSON file or 'kind:rate[:severity],...' DSL")
	faultSeed := flag.Int64("fault-seed", 1, "fault activation seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchEnv := flag.Bool("bench-env", false, "print the benchmark environment header (one JSON line, `make bench` stamps it into BENCH_*.json) and exit")
	journal := flag.String("journal", "", "write a structured experiment journal (JSONL) to this file")
	runID := flag.String("run-id", "", "run id recorded in the journal (default: UTC start timestamp)")
	flag.Parse()

	if *benchEnv {
		if err := json.NewEncoder(os.Stdout).Encode(obs.BenchEnvHeader{Env: obs.CaptureEnvironment()}); err != nil {
			fmt.Fprintln(os.Stderr, "h2pbench:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	plan, err := fault.ParsePlan(*faultPlan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2pbench:", err)
		os.Exit(1)
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2pbench:", err)
		os.Exit(1)
	}
	params := experiments.EvalParams{
		Servers: *servers, Seed: *seed, Workers: *workers,
		Faults: plan, FaultSeed: *faultSeed,
	}
	if *telemetryAddr != "" || *metricsOut != "" || *traceOut != "" {
		params.Telemetry = telemetry.New()
	}
	var srv *telemetry.Server
	if *telemetryAddr != "" {
		srv, err = telemetry.Serve(*telemetryAddr, params.Telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "h2pbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "h2pbench: telemetry at http://%s/metrics\n", srv.Addr())
	}
	// -journal records the invocation at experiment granularity: a manifest
	// with the environment and knobs, one event per completed experiment.
	var rec *obs.Recorder
	var rr *obs.RunRecorder
	if *journal != "" {
		rec, err = obs.Create(*journal, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "h2pbench:", err)
			os.Exit(1)
		}
		if *runID == "" {
			*runID = time.Now().UTC().Format("20060102T150405Z")
		}
		m := obs.Manifest{
			RunID: *runID,
			Trace: "experiments-" + *exp,
			Config: obs.RunConfig{
				Servers:               *servers,
				ServersPerCirculation: 0,
				Scheme:                "both",
				Workers:               core.ResolveParallelism(*workers),
				Seed:                  *seed,
				FaultSeed:             *faultSeed,
				Streaming:             true,
			},
			Env: obs.CaptureEnvironment(),
		}
		if !plan.Empty() {
			m.Config.FaultPlan = plan.String()
		}
		rr = obs.NewRunRecorder(rec, m, 0)
	}
	var runErr error
	if *reportPath != "" {
		runErr = writeReport(*reportPath, params)
		if runErr == nil {
			fmt.Printf("report written to %s\n", *reportPath)
		}
	} else {
		runErr = run(os.Stdout, *exp, params, *csvDir, rr)
	}
	if runErr == nil && *metricsOut != "" {
		runErr = writeToFile(*metricsOut, params.Telemetry.WriteProm)
	}
	if runErr == nil && *traceOut != "" {
		runErr = writeToFile(*traceOut, params.Telemetry.WriteTrace)
	}
	if srv != nil {
		srv.Close()
	}
	if err := rec.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "h2pbench: journal:", err)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "h2pbench:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "h2pbench:", runErr)
		os.Exit(1)
	}
}

func writeReport(path string, params experiments.EvalParams) error {
	opts := report.DefaultOptions(params)
	return writeToFile(path, func(w io.Writer) error {
		// The snapshot must be taken after the experiments have run.
		tables, err := experiments.RunAll(opts.Params)
		if err != nil {
			return err
		}
		opts.Telemetry = params.Telemetry.Snapshot()
		return report.Write(w, opts, tables)
	})
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

func run(out io.Writer, exp string, params experiments.EvalParams, csvDir string, rr *obs.RunRecorder) error {
	var tables []*experiments.Table
	if exp == "all" {
		ts, err := experiments.RunAll(params)
		if err != nil {
			return err
		}
		tables = ts
	} else {
		t, err := experiments.Run(exp, params)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{t}
	}
	defer rr.Event(obs.EventNote, len(tables), "all experiments complete")
	for i, t := range tables {
		rr.Event(obs.EventNote, i, "experiment "+t.ID+" complete")
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := t.WriteText(out); err != nil {
			return err
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "(csv written to %s)\n", path)
		}
	}
	return nil
}
