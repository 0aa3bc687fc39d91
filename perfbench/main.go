// Command perfbench is the repository's benchmark. It runs one named workload
// against the simulator's public entry points — the h2psim and h2pserved
// binaries and the core, shard, sched and trace library calls — checks every
// output against an independently computed reference, and prints its metrics
// with units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones from the traced stage loop, the shard
// pipeline counters and the serve client's timings. Run it through run.sh,
// which builds the binaries first:
//
//	bash perfbench/run.sh --workload replay-csv --seed 1 --seconds 15 --trace 0
//
// Workloads: replay-csv, month-warm, serve-mixed (see README.md). Inputs are
// generated from --seed outside every timed region and cached under the work
// directory. A failed output check makes the command exit non-zero after
// printing the result line; a workload that cannot run prints no result.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale sizes every workload. full is the benchmark; tiny is the smoke
// test's.
type scale struct {
	name string
	// replay-csv: servers of the drastic CSV (12 h, 144 intervals).
	replayServers int
	// month-warm: servers and days of the common-class generator trace.
	monthServers, monthDays int
	// serve-mixed: the paper-scale run shape, the paced request rate, and
	// the saturated phase's requests per second of window (its fixed
	// request count is this times half the window).
	paperServers, paperIntervals int
	pacedPerSec, saturatedPerSec float64
	// minRuns is the fewest measured repetitions of a batch workload.
	minRuns int
}

var scales = map[string]scale{
	"full": {name: "full", replayServers: 12500, monthServers: 12500, monthDays: 30,
		paperServers: 1000, paperIntervals: 144, pacedPerSec: 150, saturatedPerSec: 460, minRuns: 2},
	"tiny": {name: "tiny", replayServers: 200, monthServers: 200, monthDays: 2,
		paperServers: 100, paperIntervals: 24, pacedPerSec: 40, saturatedPerSec: 40, minRuns: 1},
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory holding h2psim, h2pserved and h2pbench
	work     string // fixtures and scratch files
	scale    scale
	out      io.Writer
}

// workload runs one workload and returns its metrics; failed output checks
// land in t.
type workload func(o *options, t *tally) (values, error)

var workloads = map[string]workload{
	"replay-csv":  replayCSV,
	"month-warm":  monthWarm,
	"serve-mixed": serveMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{out: stdout}
	fs.StringVar(&o.workload, "workload", "", "workload: replay-csv, month-warm or serve-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	secs := fs.Int("seconds", 15, "measurement window per run, in seconds")
	trc := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	fs.StringVar(&o.bin, "bin", "", "directory holding the h2psim, h2pserved and h2pbench binaries")
	fs.StringVar(&o.work, "work", "", "work directory for fixtures and scratch files")
	scaleName := fs.String("scale", "full", "workload size: full or tiny (smoke test)")
	child := fs.Bool("child", false, "run the month-warm program side and print its measurements (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	w, wok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown -scale %q\n", *scaleName)
		return 2
	case !wok:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case *secs < 1 || (*trc != 0 && *trc != 1):
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	case o.bin == "" || o.work == "":
		fmt.Fprintln(stderr, "perfbench: -bin and -work are required (run.sh sets them)")
		return 2
	}
	o.scale, o.seconds, o.traced = sc, time.Duration(*secs)*time.Second, *trc == 1
	if *child {
		if err := monthChild(o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: month-warm child:", err)
			return 1
		}
		return 0
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	header, err := benchEnvHeader(o.bin)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", header)
	fmt.Fprintf(stdout, "workload %s, seed %d, window %s, trace %d, scale %s\n",
		o.workload, o.seed, o.seconds, *trc, sc.name)

	t := &tally{}
	v, err := w(o, t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	printMetrics(stdout, v)
	fmt.Fprintf(stdout, "failed_frac %.6g (%d failed of %d operations attempted)\n",
		float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	for _, p := range t.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	kind := gated
	if o.traced {
		kind = layer
	}
	r, err := emit(stdout, v, kind, t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !r.Correct || r.Attempted < 1 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// command prepares a child process that the kernel kills if the benchmark
// dies first, so an interrupted run leaves no server or simulator behind.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// benchEnvHeader runs `h2pbench -bench-env` for the environment header every
// result is stamped with.
func benchEnvHeader(bin string) (string, error) {
	out, err := command(filepath.Join(bin, "h2pbench"), "-bench-env").Output()
	if err != nil {
		return "", fmt.Errorf("h2pbench -bench-env: %w", err)
	}
	line := bytes.TrimSpace(out)
	if len(line) == 0 {
		return "", errors.New("h2pbench -bench-env printed nothing")
	}
	return string(line), nil
}
