package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"syscall"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/storage"
	"github.com/h2p-sim/h2p/internal/trace"
)

const (
	// monthQuantum is the documented month-scale decision-cache quantum.
	monthQuantum = 1.0 / 512
	// monthWorkers is the engine worker pool of the month run, and the
	// shard count of its pipeline counters.
	monthWorkers = 2
	// monthStorageWhPerServer sizes the storage buffer with the fleet.
	monthStorageWhPerServer = 4
	// monthSetups is how many extra times the program side times its
	// set-up before the measured runs.
	monthSetups = 15
)

// monthRun is month-warm's configuration: the common-class generator over a
// month, LoadBalance at the month-scale quantum, the seasonal environment
// with the heat-reuse sink and a storage buffer. The generator and the
// environment jitter are both seeded from the benchmark seed.
func monthRun(o *options) stageRun {
	gcfg := trace.CommonConfig(o.scale.monthServers)
	gcfg.Horizon = time.Duration(o.scale.monthDays) * 24 * time.Hour
	cfg := core.DefaultConfig(sched.LoadBalance)
	cfg.DecisionQuantum = monthQuantum
	cfg.Workers = monthWorkers
	cfg.Env = env.DefaultSeasonal(uint64(o.seed))
	cfg.Reuse = heatreuse.DefaultSink()
	spec := storage.BufferForCapacity(monthStorageWhPerServer * float64(o.scale.monthServers))
	cfg.Storage = &spec
	seed := o.seed
	return stageRun{
		name:     "month-warm/" + string(cfg.Scheme),
		cfg:      cfg,
		open:     func() (trace.Source, error) { return trace.NewGeneratorSource(gcfg, seed) },
		srcBytes: 8 * int64(gcfg.Servers) * int64(gcfg.Horizon/gcfg.Interval),
	}
}

// childReport is what the month-warm program side reports to the parent:
// set-up CPU times, and each run's wall clock, CPU time and result.
type childReport struct {
	SetupS  []float64      `json:"setup_s"`
	WallS   []float64      `json:"wall_s"`
	CPUS    []float64      `json:"cpu_s"`
	Results []*core.Result `json:"results"`
}

// monthWarm runs a month of a 12.5k-server fleet through
// core.Engine.RunSource with two workers, in a child process of its own so
// its peak RSS is the run's alone, and checks every result against the
// single-goroutine stage loop.
func monthWarm(o *options, t *tally) (values, error) {
	sr := monthRun(o)
	v := values{}
	if o.traced {
		refs := make([]*core.Result, 1)
		if err := tracedLayers(o, t, []stageRun{sr}, monthWorkers, refs, v); err != nil {
			return nil, err
		}
		zeroServeLayer(v)
		return v, nil
	}
	ref, _, err := runStages(sr, false)
	if err != nil {
		return nil, err
	}
	rep, rss, err := runMonthChild(o)
	if err != nil {
		return nil, err
	}
	for i, res := range rep.Results {
		checkSame(t, fmt.Sprintf("month-warm run %d: engine path vs stage loop", i), res, ref)
	}
	src, err := sr.open()
	if err != nil {
		return nil, err
	}
	meta := src.Meta()
	batchMetrics(v, rep.WallS, rep.CPUS, []float64{rss}, rep.SetupS, float64(meta.Servers)*float64(meta.Intervals), 1)
	fmt.Fprintf(o.out, "month-warm: %d engine runs of %d servers x %d intervals, %d workers\n  wall s %.3f\n  cpu s  %.3f\n  set-up cpu s %.4f\n",
		len(rep.WallS), meta.Servers, meta.Intervals, monthWorkers, rep.WallS, rep.CPUS, rep.SetupS)
	return v, nil
}

// runMonthChild re-executes this binary as the month-warm program side and
// returns its report and peak RSS in MB.
func runMonthChild(o *options) (*childReport, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := command(self, "-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(int(o.seconds.Seconds())), "-scale", o.scale.name,
		"-bin", o.bin, "-work", o.work)
	var stdout bytes.Buffer
	var stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("month-warm child: %w: %s", err, stderr.String())
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("month-warm child report: %w", err)
	}
	if len(rep.WallS) == 0 || len(rep.WallS) != len(rep.Results) || len(rep.CPUS) != len(rep.Results) {
		return nil, 0, fmt.Errorf("month-warm child reported %d runs and %d results", len(rep.WallS), len(rep.Results))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, fmt.Errorf("month-warm child: no resource usage")
	}
	return &rep, float64(ru.Maxrss) / 1024, nil
}

// cpuTime is the user plus system CPU time this process has consumed.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// monthChild is the month-warm program side: it sets up monthSetups times,
// then runs the month through a fresh engine until the window closes, and
// prints a childReport.
func monthChild(o *options, w io.Writer) error {
	sr := monthRun(o)
	var rep childReport
	setup := func() (*core.Engine, trace.Source, error) {
		c0, err := cpuTime()
		if err != nil {
			return nil, nil, err
		}
		eng, err := core.NewEngine(sr.cfg)
		if err != nil {
			return nil, nil, err
		}
		src, err := sr.open()
		if err != nil {
			return nil, nil, err
		}
		c1, err := cpuTime()
		if err != nil {
			return nil, nil, err
		}
		rep.SetupS = append(rep.SetupS, seconds(c1-c0))
		return eng, src, nil
	}
	for k := 0; k < monthSetups; k++ {
		if _, _, err := setup(); err != nil {
			return err
		}
	}
	start := time.Now()
	for len(rep.WallS) < o.scale.minRuns || time.Since(start) < o.seconds {
		eng, src, err := setup()
		if err != nil {
			return err
		}
		c0, err := cpuTime()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := eng.RunSource(src, nil)
		if err != nil {
			return err
		}
		rep.WallS = append(rep.WallS, seconds(time.Since(t0)))
		c1, err := cpuTime()
		if err != nil {
			return err
		}
		rep.CPUS = append(rep.CPUS, seconds(c1-c0))
		rep.Results = append(rep.Results, res)
	}
	return json.NewEncoder(w).Encode(&rep)
}
