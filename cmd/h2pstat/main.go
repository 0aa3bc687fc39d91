// Command h2pstat inspects h2psim run observability artifacts: it
// summarizes structured run journals, converts span traces to Chrome
// trace-event / Perfetto JSON, and tails a live run's endpoints.
//
// Usage:
//
//	h2pstat summary [-json] run.journal        per-run digest of a journal
//	h2pstat summary [-json] http://host:port   same digest from a live server
//	h2pstat trace -perfetto [-o out.json] spans.json
//	                                           convert a /trace (or -trace-out)
//	                                           span dump for ui.perfetto.dev
//	h2pstat tail [-run key] host:port          follow a live run's SSE stream
//
// The journal is JSONL (internal/obs schema v1); spans.json is the JSON
// array served at /trace; tail connects to the /runs/events endpoint served
// by `h2psim -telemetry-addr` or h2pserved. summary and tail accept either a
// bare host:port or an http(s):// URL, so the same commands inspect local
// artifacts and live servers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summary":
		err = cmdSummary(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "h2pstat: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2pstat:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  h2pstat summary [-json] run.journal|http://host:port
  h2pstat trace -perfetto [-o out.json] spans.json
  h2pstat tail [-run key] host:port|http://host:port
`)
}

// cmdSummary digests a journal — a local JSONL file or a live server's /runs
// endpoint, which serves the same summaries — into per-run rows.
func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the summaries as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("summary wants exactly one journal file or server URL, got %d args", fs.NArg())
	}
	sums, err := loadSummaries(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeSummaries(os.Stdout, sums, *asJSON)
}

// writeSummaries renders the summaries as indented JSON or as the human
// table.
func writeSummaries(w io.Writer, sums []*obs.RunSummary, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sums)
	}
	printSummaries(w, sums)
	return nil
}

// loadSummaries reads run summaries from a journal file, or — when arg is an
// http(s):// URL — from a server's /runs endpoint, which serves exactly the
// rows Summarize would fold from its journal.
func loadSummaries(arg string) ([]*obs.RunSummary, error) {
	if strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://") {
		resp, err := http.Get(strings.TrimSuffix(arg, "/") + "/runs")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("summary: %s: %s", arg, resp.Status)
		}
		sums, err := decodeSummaries(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("summary: %s: %w", arg, err)
		}
		return sums, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := obs.ReadJournal(f)
	if err != nil {
		return nil, err
	}
	return obs.Summarize(records), nil
}

// decodeSummaries decodes a /runs response body. It rejects a null entry,
// which the renderers could not read.
func decodeSummaries(r io.Reader) ([]*obs.RunSummary, error) {
	var sums []*obs.RunSummary
	if err := json.NewDecoder(r).Decode(&sums); err != nil {
		return nil, err
	}
	for i, s := range sums {
		if s == nil {
			return nil, fmt.Errorf("run entry %d is null", i)
		}
	}
	return sums, nil
}

// printSummaries renders the human summary table plus per-run detail lines.
func printSummaries(w io.Writer, sums []*obs.RunSummary) {
	fmt.Fprintf(w, "%-44s %-9s %-9s %-10s %-9s %s\n",
		"run", "status", "done", "avg W/srv", "wall", "events")
	for _, s := range sums {
		status, done, avg, wall := runStatus(s)
		fmt.Fprintf(w, "%-44s %-9s %-9s %-10s %-9s %s\n",
			s.Run, status, done, avg, wall, eventCounts(s))
	}
	for _, s := range sums {
		if s.Manifest == nil {
			continue
		}
		m := s.Manifest
		fmt.Fprintf(w, "\n%s\n", s.Run)
		fmt.Fprintf(w, "  trace    %s (%s), %d servers x %d intervals @ %.0fs\n",
			m.Trace, m.Class, m.Servers, m.Intervals, m.IntervalSeconds)
		fmt.Fprintf(w, "  config   scheme=%s workers=%d shards=%d seed=%d hash=%s\n",
			m.Config.Scheme, m.Config.Workers, m.Config.Shards, m.Config.Seed, m.ConfigHash)
		if m.Config.FaultPlan != "" {
			fmt.Fprintf(w, "  faults   plan=%s seed=%d\n", m.Config.FaultPlan, m.Config.FaultSeed)
		}
		if f := facilityLine(m.Config); f != "" {
			fmt.Fprintf(w, "  facility %s\n", f)
		}
		fmt.Fprintf(w, "  env      %s %s/%s gomaxprocs=%d cpu=%s\n",
			m.Env.GoVersion, m.Env.GOOS, m.Env.GOARCH, m.Env.GOMAXPROCS, orDash(m.Env.CPUModel))
		if d := s.Done; d != nil {
			fmt.Fprintf(w, "  result   avg=%.3f W/srv peak=%.3f W/srv PRE=%.2f%% wall=%s\n",
				d.AvgTEGWattsPerServer, d.PeakTEGWattsPerServer, d.PRE*100,
				(time.Duration(d.WallMS) * time.Millisecond).String())
			if d.Faults != nil {
				fmt.Fprintf(w, "  faulted  degraded=%d open_teg=%d sensor_fb=%d retries=%d\n",
					d.Faults.DegradedIntervals, d.Faults.OpenTEG,
					d.Faults.SensorFallbacks, d.Faults.StepRetries)
			}
		} else if p := s.Progress; p != nil {
			fmt.Fprintf(w, "  progress %d/%d intervals, %.1f intervals/s, eta %s, cache hit %.1f%%\n",
				p.Done, p.Total, p.IntervalsPerSec,
				(time.Duration(p.EtaMS) * time.Millisecond).Round(time.Second),
				p.CacheHitRate*100)
			if p.Shard != nil {
				fmt.Fprintf(w, "  shards   %d, merge waits %d (%.3fs), decode %.3fs\n",
					p.Shard.Shards, p.Shard.MergeWaits, p.Shard.MergeWaitSeconds, p.Shard.DecodeSeconds)
			}
		}
	}
}

// facilityLine renders the manifest's facility-environment knobs, empty for
// the constant default so pre-environment journals print unchanged.
func facilityLine(c obs.RunConfig) string {
	var parts []string
	if c.EnvKind != "" {
		p := "env=" + c.EnvKind
		if c.EnvDetail != "" {
			p += " (" + c.EnvDetail + ")"
		}
		parts = append(parts, p)
	}
	if c.HeatReuse {
		parts = append(parts, "heat_reuse=on")
	}
	if c.StorageWh > 0 {
		parts = append(parts, fmt.Sprintf("storage=%.0fWh", c.StorageWh))
	}
	return strings.Join(parts, " ")
}

// runStatus condenses a summary's table cells.
func runStatus(s *obs.RunSummary) (status, done, avg, wall string) {
	status, done, avg, wall = "running", "-", "-", "-"
	switch {
	case s.Done != nil:
		status = "done"
		done = fmt.Sprintf("%d/%d", s.Done.Intervals, s.Done.Intervals)
		avg = fmt.Sprintf("%.3f", s.Done.AvgTEGWattsPerServer)
		wall = (time.Duration(s.Done.WallMS) * time.Millisecond).Round(time.Millisecond).String()
	case s.Halts > 0:
		status = "halted"
	}
	if s.Done == nil && s.Progress != nil {
		p := s.Progress
		done = fmt.Sprintf("%d/%d", p.Done, p.Total)
		avg = fmt.Sprintf("%.3f", p.AvgTEGWattsPerServer)
		wall = (time.Duration(p.WallMS) * time.Millisecond).Round(time.Millisecond).String()
	}
	// With no progress past its halt, a halted run's position is the halt
	// event's. A resumed run restarts at its halt's checkpoint, so progress
	// after the resume reads past HaltedAt.
	if status == "halted" && s.Manifest != nil && (s.Progress == nil || s.Progress.Done <= s.HaltedAt) {
		done = fmt.Sprintf("%d/%d", s.HaltedAt, s.Manifest.Intervals)
	}
	return status, done, avg, wall
}

// eventCounts renders the non-zero lifecycle counters compactly.
func eventCounts(s *obs.RunSummary) string {
	var parts []string
	add := func(n int, label string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, n))
		}
	}
	add(s.Checkpoints, "ckpt")
	add(s.Resumes, "resume")
	add(s.Halts, "halt")
	add(s.Degraded, "degraded")
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// cmdTrace converts a span dump to Chrome trace-event / Perfetto JSON.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	perfetto := fs.Bool("perfetto", false, "emit Chrome trace-event JSON (ui.perfetto.dev)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if !*perfetto {
		return fmt.Errorf("trace: only -perfetto conversion is supported; pass -perfetto")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace wants exactly one spans.json file (use - for stdin), got %d args", fs.NArg())
	}
	var in io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var spans []telemetry.Span
	if err := json.NewDecoder(in).Decode(&spans); err != nil {
		return fmt.Errorf("trace: spans JSON: %w", err)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "h2pstat:", err)
			}
		}()
		w = f
	}
	return obs.WriteTraceEvents(w, spans)
}

// cmdTail follows a live endpoint's SSE record stream and prints one line
// per record until the stream ends or the process is interrupted.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	run := fs.String("run", "", "tail one run key (<id>/<trace>/<scheme>) instead of every run")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("tail wants exactly one host:port or server URL, got %d args", fs.NArg())
	}
	base := strings.TrimSuffix(fs.Arg(0), "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	url := base + "/runs/events"
	if *run != "" {
		url = base + "/runs/" + *run + "/events"
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tail: %s: %s", url, resp.Status)
	}
	return tailSSE(os.Stdout, resp.Body)
}

// tailSSE renders an SSE record stream, one line per event.
func tailSSE(w io.Writer, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			printTailLine(w, event, strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}

// printTailLine formats one SSE payload for the terminal; payloads that do
// not parse print raw so nothing is silently dropped.
func printTailLine(w io.Writer, event, data string) {
	switch event {
	case "summary":
		var s obs.RunSummary
		if json.Unmarshal([]byte(data), &s) != nil {
			fmt.Fprintln(w, data)
			return
		}
		status, done, avg, _ := runStatus(&s)
		fmt.Fprintf(w, "%s  %s %s avg=%s %s\n", s.Run, status, done, avg, eventCounts(&s))
	case "progress":
		var rec obs.Record
		if json.Unmarshal([]byte(data), &rec) != nil || rec.Progress == nil {
			fmt.Fprintln(w, data)
			return
		}
		p := rec.Progress
		fmt.Fprintf(w, "%s  %d/%d  %.1f intervals/s  eta %s  avg=%.3f W/srv\n",
			rec.Run, p.Done, p.Total, p.IntervalsPerSec,
			(time.Duration(p.EtaMS) * time.Millisecond).Round(time.Second), p.AvgTEGWattsPerServer)
	case "event":
		var rec obs.Record
		if json.Unmarshal([]byte(data), &rec) != nil || rec.Event == nil {
			fmt.Fprintln(w, data)
			return
		}
		fmt.Fprintf(w, "%s  [%s] interval=%d %s\n", rec.Run, rec.Event.Kind, rec.Event.Interval, rec.Event.Detail)
	case "manifest":
		var rec obs.Record
		if json.Unmarshal([]byte(data), &rec) != nil || rec.Manifest == nil {
			fmt.Fprintln(w, data)
			return
		}
		m := rec.Manifest
		fmt.Fprintf(w, "%s  manifest: %d servers x %d intervals, scheme=%s shards=%d\n",
			rec.Run, m.Servers, m.Intervals, m.Config.Scheme, m.Config.Shards)
	case "done":
		var rec obs.Record
		if json.Unmarshal([]byte(data), &rec) != nil || rec.Done == nil {
			fmt.Fprintln(w, data)
			return
		}
		d := rec.Done
		fmt.Fprintf(w, "%s  done: avg=%.3f W/srv peak=%.3f PRE=%.2f%% wall=%s\n",
			rec.Run, d.AvgTEGWattsPerServer, d.PeakTEGWattsPerServer, d.PRE*100,
			(time.Duration(d.WallMS) * time.Millisecond).String())
	default:
		fmt.Fprintln(w, data)
	}
}
