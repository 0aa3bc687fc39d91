package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// replayFaultPlan is replay-csv's small fault plan: module degradation,
// stuck outlet sensors and transient step errors (retried, then degraded).
const replayFaultPlan = "teg-degrade:0.02:0.3,sensor-stuck:0.01,step-error:0.005"

// replayShards and replayCheckpointEvery are the h2psim flags of the replay.
const (
	replayShards          = 2
	replayCheckpointEvery = 24
	// replaySetups is how many times a run measures set-up; it reports the
	// median.
	replaySetups = 5
)

// schemes is the order h2psim runs and journals the two schemes in.
var schemes = [2]sched.Scheme{sched.Original, sched.LoadBalance}

// replayRuns is the replay's stage-loop configuration per scheme: exactly
// what `h2psim -trace path -fault-plan replayFaultPlan` builds.
func replayRuns(path string, size int64, work string, journal bool) ([]stageRun, error) {
	plan, err := fault.ParsePlan(replayFaultPlan)
	if err != nil {
		return nil, err
	}
	var runs []stageRun
	for _, s := range schemes {
		cfg := core.DefaultConfig(s)
		cfg.Faults = plan
		cfg.FaultSeed = 1 // h2psim's default -fault-seed
		sr := stageRun{
			name:     "replay-csv/" + string(s),
			cfg:      cfg,
			open:     func() (trace.Source, error) { return trace.OpenCSVFile(path) },
			srcBytes: size,
		}
		if journal {
			sr.journal = filepath.Join(work, "stage-"+string(s)+".journal")
		}
		runs = append(runs, sr)
	}
	return runs, nil
}

// replayCSV replays a 12 h drastic-class CSV through h2psim with two shards,
// a journal, checkpoints and the fault plan, for both schemes.
func replayCSV(o *options, t *tally) (values, error) {
	gcfg := trace.DrasticConfig(o.scale.replayServers)
	path, size, err := csvFixture(filepath.Join(o.work, "fixtures"), gcfg, o.seed)
	if err != nil {
		return nil, err
	}
	runs, err := replayRuns(path, size, o.work, o.traced)
	if err != nil {
		return nil, err
	}
	meta, err := csvMeta(path)
	if err != nil {
		return nil, err
	}
	v := values{}
	var refs [2]*core.Result
	if o.traced {
		if err := tracedLayers(o, t, runs, replayShards, refs[:], v); err != nil {
			return nil, err
		}
		// The shipped binary's path is checked on traced runs too.
		if _, err := h2psimReplay(o, path, meta.Intervals, refs, t, 0); err != nil {
			return nil, err
		}
		zeroServeLayer(v)
		return v, nil
	}
	for i, sr := range runs {
		if refs[i], _, err = runStages(sr, false); err != nil {
			return nil, err
		}
	}

	var setups, setupWalls []float64
	for k := 0; k < replaySetups; k++ {
		inv, err := h2psimReplay(o, path, meta.Intervals, refs, t, 1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(inv.cpu))
		setupWalls = append(setupWalls, seconds(inv.wall))
	}
	var walls, cpus, rss []float64
	start := time.Now()
	for len(walls) < o.scale.minRuns || time.Since(start) < o.seconds {
		inv, err := h2psimReplay(o, path, meta.Intervals, refs, t, 0)
		if err != nil {
			return nil, err
		}
		walls = append(walls, seconds(inv.wall))
		cpus = append(cpus, seconds(inv.cpu))
		rss = append(rss, inv.maxRSSMB)
	}
	batchMetrics(v, walls, cpus, rss, setups, 2*float64(meta.Servers)*float64(meta.Intervals), 2)
	fmt.Fprintf(o.out, "replay-csv: %d h2psim runs of %d servers x %d intervals x 2 schemes\n  wall s %.3f\n  cpu s  %.3f\n  set-up (halted after interval 1) wall s %.3f, cpu s %.3f\n",
		len(walls), meta.Servers, meta.Intervals, walls, cpus, setupWalls, setups)
	return v, nil
}

// csvMeta reads a CSV trace's shape.
func csvMeta(path string) (trace.Meta, error) {
	src, err := trace.OpenCSVFile(path)
	if err != nil {
		return trace.Meta{}, err
	}
	defer src.Close()
	return src.Meta(), nil
}

// invocation is one measured child process.
type invocation struct {
	wall, cpu time.Duration
	maxRSSMB  float64
}

// h2psimReplay runs h2psim over the CSV as an operator would and checks its
// journal's done records against refs. haltAfter 1 stops every run after its
// first interval — the set-up measurement — and expects the clean-halt exit.
func h2psimReplay(o *options, path string, intervals int, refs [2]*core.Result, t *tally, haltAfter int) (invocation, error) {
	journal := filepath.Join(o.work, "h2psim.journal")
	ckpt := filepath.Join(o.work, "h2psim.checkpoint")
	os.Remove(ckpt) // a fresh run, never a resume
	args := []string{
		"-trace", path, "-shards", fmt.Sprint(replayShards), "-quantum", "0",
		"-fault-plan", replayFaultPlan, "-journal", journal,
		"-checkpoint", ckpt, "-checkpoint-every", fmt.Sprint(replayCheckpointEvery),
		"-run-id", "perfbench",
	}
	if haltAfter > 0 {
		args = append(args, "-halt-after", fmt.Sprint(haltAfter))
	}
	cmd := command(filepath.Join(o.bin, "h2psim"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start)}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return inv, fmt.Errorf("h2psim: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.maxRSSMB = float64(ru.Maxrss) / 1024
	}
	inv.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	code := cmd.ProcessState.ExitCode()
	switch {
	case haltAfter > 0 && code != 3:
		t.fail("h2psim -halt-after %d exited %d, want 3: %s", haltAfter, code, stderr.String())
	case haltAfter == 0 && code != 0:
		t.fail("h2psim exited %d: %s", code, stderr.String())
	case haltAfter > 0:
		t.ok()
	default:
		checkJournal(journal, refs, intervals, t)
	}
	return inv, nil
}

// checkJournal compares h2psim's done records, one per scheme, with the
// stage loop's Finalize results, bit for bit.
func checkJournal(path string, refs [2]*core.Result, intervals int, t *tally) {
	f, err := os.Open(path)
	if err != nil {
		t.fail("journal: %v", err)
		return
	}
	defer f.Close()
	recs, err := obs.ReadJournal(f)
	if err != nil {
		t.fail("journal: %v", err)
		return
	}
	var seen [2]bool
	for _, rec := range recs {
		if rec.Type != "done" || rec.Done == nil {
			continue
		}
		i := -1
		for k, s := range schemes {
			if strings.HasSuffix(rec.Run, "/"+string(s)) {
				i = k
			}
		}
		if i < 0 || seen[i] {
			t.fail("journal: unexpected done record for run %s", rec.Run)
			return
		}
		seen[i] = true
		if msg := doneMismatch(rec.Done, refs[i], intervals); msg != "" {
			t.fail("journal done record for %s differs from the stage loop: %s", rec.Run, msg)
			return
		}
	}
	if !seen[0] || !seen[1] {
		t.fail("journal holds done records for %v of the two schemes", seen)
		return
	}
	t.ok()
}

// doneMismatch describes how a journal done record differs from a Result,
// or returns "" when every field matches exactly.
func doneMismatch(d *obs.Done, r *core.Result, intervals int) string {
	var faults core.FaultSummary
	if d.Faults != nil {
		faults = *d.Faults
	}
	switch {
	case d.Intervals != intervals:
		return fmt.Sprintf("intervals %d vs %d", d.Intervals, intervals)
	case d.AvgTEGWattsPerServer != float64(r.AvgTEGPowerPerServer):
		return fmt.Sprintf("avg TEG %v vs %v", d.AvgTEGWattsPerServer, float64(r.AvgTEGPowerPerServer))
	case d.PeakTEGWattsPerServer != float64(r.PeakTEGPowerPerServer):
		return "peak TEG"
	case d.PRE != r.PRE:
		return "PRE"
	case d.TEGEnergyKWh != float64(r.TEGEnergy):
		return "TEG energy"
	case faults != r.Faults:
		return fmt.Sprintf("faults %+v vs %+v", faults, r.Faults)
	}
	return ""
}
