package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/units"
)

func doneSummary() *obs.RunSummary {
	return &obs.RunSummary{
		Run: "T1/synthetic-diurnal/TEG_LoadBalance",
		Manifest: &obs.Manifest{
			RunID: "T1", Trace: "synthetic-diurnal", Class: "diurnal",
			Servers: 60, Intervals: 100, IntervalSeconds: 300,
			Config: obs.RunConfig{
				Servers: 60, ServersPerCirculation: 20, Scheme: "TEG_LoadBalance",
				Workers: 4, Shards: 2, Seed: 42, FaultPlan: "teg-degrade:0.10:0.50",
			},
			ConfigHash: "00decafc0ffee000",
			Env:        obs.Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8},
		},
		Done: &obs.Done{
			Intervals: 100, AvgTEGWattsPerServer: 4.321, PeakTEGWattsPerServer: 6.5,
			PRE: 0.025, TEGEnergyKWh: 1.2, WallMS: 1500,
		},
		Checkpoints: 2, Resumes: 1, Halts: 1, Records: 12, FirstMS: 1, LastMS: 2,
	}
}

func runningSummary() *obs.RunSummary {
	return &obs.RunSummary{
		Run: "T1/synthetic-batch/TEG_Original",
		Manifest: &obs.Manifest{
			RunID: "T1", Trace: "synthetic-batch", Servers: 60, Intervals: 100,
			Config: obs.RunConfig{Scheme: "TEG_Original", Workers: 4},
		},
		Progress: &obs.Progress{
			Interval: 49, Done: 50, Total: 100, WallMS: 800, IntervalsPerSec: 62.5,
			EtaMS: 800, AvgTEGWattsPerServer: 3.333, CacheHitRate: 0.9,
			Shard: &obs.ShardProgress{Shards: 2, MergeWaits: 3, MergeWaitSeconds: 0.01, DecodeSeconds: 0.2},
		},
		Records: 5,
	}
}

func TestPrintSummaries(t *testing.T) {
	var buf strings.Builder
	printSummaries(&buf, []*obs.RunSummary{doneSummary(), runningSummary()})
	out := buf.String()
	for _, want := range []string{
		"T1/synthetic-diurnal/TEG_LoadBalance",
		"done", "100/100", "4.321",
		"ckpt=2 resume=1 halt=1",
		"scheme=TEG_LoadBalance workers=4 shards=2 seed=42 hash=00decafc0ffee000",
		"plan=teg-degrade:0.10:0.50",
		"go1.24.0 linux/amd64 gomaxprocs=8",
		"result   avg=4.321 W/srv peak=6.500 W/srv PRE=2.50%",
		"T1/synthetic-batch/TEG_Original",
		"running", "50/100",
		"progress 50/100 intervals, 62.5 intervals/s",
		"shards   2, merge waits 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

// TestFacilityEnvLine pins the facility line: absent for constant-default
// manifests, one compact line when any environment knob is on.
func TestFacilityEnvLine(t *testing.T) {
	if got := facilityLine(obs.RunConfig{}); got != "" {
		t.Errorf("constant default rendered %q, want empty", got)
	}
	cfg := obs.RunConfig{EnvKind: "seasonal", EnvDetail: "seed=7", HeatReuse: true, StorageWh: 200}
	want := "env=seasonal (seed=7) heat_reuse=on storage=200Wh"
	if got := facilityLine(cfg); got != want {
		t.Errorf("facility line = %q, want %q", got, want)
	}

	s := doneSummary()
	s.Manifest.Config.EnvKind = "profile"
	s.Manifest.Config.EnvDetail = "profile:v1:abc"
	var buf strings.Builder
	printSummaries(&buf, []*obs.RunSummary{s})
	if !strings.Contains(buf.String(), "facility env=profile (profile:v1:abc)") {
		t.Errorf("summary output missing facility line:\n%s", buf.String())
	}
}

func TestRunStatus(t *testing.T) {
	if status, done, avg, _ := runStatus(doneSummary()); status != "done" || done != "100/100" || avg != "4.321" {
		t.Errorf("done summary status = %s %s %s", status, done, avg)
	}
	if status, done, _, _ := runStatus(runningSummary()); status != "running" || done != "50/100" {
		t.Errorf("running summary status = %s %s", status, done)
	}
	halted := runningSummary()
	halted.Halts = 1
	if status, _, _, _ := runStatus(halted); status != "halted" {
		t.Errorf("halted summary status = %s", status)
	}
	if status, done, avg, wall := runStatus(&obs.RunSummary{Run: "x"}); status != "running" ||
		done != "-" || avg != "-" || wall != "-" {
		t.Errorf("bare summary = %s %s %s %s", status, done, avg, wall)
	}
}

func TestEventCounts(t *testing.T) {
	if got := eventCounts(&obs.RunSummary{}); got != "-" {
		t.Errorf("no events renders %q, want -", got)
	}
	if got := eventCounts(&obs.RunSummary{Checkpoints: 3, Degraded: 1}); got != "ckpt=3 degraded=1" {
		t.Errorf("event counts = %q", got)
	}
}

// TestTailSSERendering feeds a canned SSE stream through the tail renderer
// and checks each event type gets its line — and unparseable payloads fall
// through raw instead of vanishing.
func TestTailSSERendering(t *testing.T) {
	stream := strings.Join([]string{
		`event: summary`,
		`data: {"run":"T1/t/s","progress":{"done":5,"total":10,"avg_teg_w_per_server":2.5,"cache_hit_rate":1}}`,
		``,
		`event: progress`,
		`data: {"type":"progress","run":"T1/t/s","progress":{"done":6,"total":10,"intervals_per_sec":3.5,"avg_teg_w_per_server":2.6,"cache_hit_rate":1}}`,
		``,
		`event: event`,
		`data: {"type":"event","run":"T1/t/s","event":{"kind":"checkpoint","interval":6}}`,
		``,
		`event: done`,
		`data: {"type":"done","run":"T1/t/s","done":{"intervals":10,"avg_teg_w_per_server":2.75,"peak_teg_w_per_server":4,"pre":0.01}}`,
		``,
		`event: mystery`,
		`data: {"opaque":true}`,
		``,
	}, "\n")
	var buf strings.Builder
	if err := tailSSE(&buf, strings.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"T1/t/s  running 5/10 avg=2.500",
		"T1/t/s  6/10  3.5 intervals/s",
		"[checkpoint] interval=6",
		"done: avg=2.750 W/srv peak=4.000 PRE=1.00%",
		`{"opaque":true}`, // unknown event types print raw
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tail output missing %q:\n%s", want, out)
		}
	}
}

// TestSummaryRoundTripsLifecycleJournal writes a halt/resume journal through
// the real recorder — manifest, progress, checkpoint, halt, a re-appended
// manifest with a resume event, then done — reads it back through the same
// path cmdSummary uses, and checks the rendering reflects the lifecycle.
func TestSummaryRoundTripsLifecycleJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	m := obs.Manifest{
		RunID: "T1", Trace: "synthetic-diurnal", Servers: 60, Intervals: 10,
		Config: obs.RunConfig{Servers: 60, Scheme: "TEG_LoadBalance", Workers: 2,
			Shards: 2, Seed: 42, FaultPlan: "teg-degrade:0.10:0.50"},
	}
	ir := core.IntervalResult{TEGPowerPerServer: units.Watts(4)}

	// First life: runs to interval 5, checkpoints, halts.
	rec, err := obs.Create(path, false)
	if err != nil {
		t.Fatal(err)
	}
	rr := obs.NewRunRecorder(rec, m, 2)
	for i := 0; i < 5; i++ {
		rr.ObserveInterval(i, ir)
		if i == 1 {
			rr.ObserveCheckpoint(2) // cadence checkpoint mid-run
		}
	}
	rr.ObserveCheckpoint(5) // halt-boundary checkpoint, then the halt itself
	rr.ObserveHalt(5)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: appends to the same file, resumes, finishes.
	rec2, err := obs.Create(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rr2 := obs.NewRunRecorder(rec2, m, 2)
	rr2.ObserveResume(5)
	for i := 5; i < 10; i++ {
		rr2.ObserveInterval(i, ir)
	}
	rr2.Done(&core.Result{AvgTEGPowerPerServer: 4, PeakTEGPowerPerServer: 4, PRE: 0.02})
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := obs.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	sums := obs.Summarize(records)
	if len(sums) != 1 {
		t.Fatalf("journal summarizes to %d runs, want 1", len(sums))
	}
	s := sums[0]
	if s.Checkpoints != 2 || s.Halts != 1 || s.Resumes != 1 || s.Done == nil {
		t.Fatalf("lifecycle counts wrong: ckpt=%d halt=%d resume=%d done=%v",
			s.Checkpoints, s.Halts, s.Resumes, s.Done != nil)
	}

	var buf strings.Builder
	printSummaries(&buf, sums)
	out := buf.String()
	for _, want := range []string{"done", "10/10", "ckpt=2 resume=1 halt=1", "plan=teg-degrade:0.10:0.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered summary missing %q:\n%s", want, out)
		}
	}
}

// TestLoadSummariesFromServer pins the server-URL mode: summary pointed at a
// live endpoint reads the same rows /runs serves, so one command inspects
// journals on disk and servers on the network.
func TestLoadSummariesFromServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/runs":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode([]*obs.RunSummary{doneSummary()}) //nolint:errcheck
		case "/null/runs":
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `[{"run":"a"},null]`) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	sums, err := loadSummaries(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Run != doneSummary().Run || sums[0].Done == nil {
		t.Fatalf("server summaries = %+v", sums)
	}

	var buf strings.Builder
	printSummaries(&buf, sums)
	if !strings.Contains(buf.String(), "4.321") {
		t.Errorf("rendered server summary missing result:\n%s", buf.String())
	}

	if _, err := loadSummaries(srv.URL + "/missing"); err == nil {
		t.Error("bad path summary fetch succeeded")
	}
	// A null run must be an error naming its entry, not a nil row for the
	// renderers to dereference.
	if _, err := loadSummaries(srv.URL + "/null"); err == nil || !strings.Contains(err.Error(), "entry 1 is null") {
		t.Errorf("null run entry: err = %v, want one naming entry 1", err)
	}
}

// TestSummaryHaltedWithoutProgress: a run halted before its first progress
// record — the usual case under the wall-clock cadence for a run halted
// inside its first second, as `h2psim -servers 60 -workers 2 -checkpoint
// cp.json -checkpoint-every 20 -halt-after 60 -journal j.jsonl` does — shows
// the halt event's position, not a dash.
func TestSummaryHaltedWithoutProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	m := obs.Manifest{
		RunID: "T1", Trace: "alibaba-drastic", Servers: 60, Intervals: 144,
		Config: obs.RunConfig{Servers: 60, Scheme: "TEG_LoadBalance", Workers: 2, Shards: 2, Seed: 1},
	}
	rec, err := obs.Create(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// A count cadence longer than the halt stands in for the wall clock, so
	// the test does not depend on how fast the intervals are observed.
	rr := obs.NewRunRecorder(rec, m, 1000)
	for i := 0; i < 60; i++ {
		rr.ObserveInterval(i, core.IntervalResult{TEGPowerPerServer: units.Watts(4)})
		if (i+1)%20 == 0 {
			rr.ObserveCheckpoint(i + 1)
		}
	}
	rr.ObserveHalt(60)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := obs.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	sums := obs.Summarize(records)
	if len(sums) != 1 {
		t.Fatalf("journal summarizes to %d runs, want 1", len(sums))
	}
	s := sums[0]
	if s.Progress != nil || s.Halts != 1 || s.HaltedAt != 60 {
		t.Fatalf("summary progress=%v halts=%d halted_at=%d, want no progress, 1 halt at 60",
			s.Progress, s.Halts, s.HaltedAt)
	}
	if status, done, avg, wall := runStatus(s); status != "halted" || done != "60/144" || avg != "-" || wall != "-" {
		t.Errorf("halted run renders %s %s %s %s, want halted 60/144 - -", status, done, avg, wall)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"halted_at":60`) {
		t.Errorf("summary JSON lacks halted_at: %s", raw)
	}

	// Progress journaled before the halt does not hide its position; progress
	// past it (after a resume) does.
	s.Progress = &obs.Progress{Done: 40, Total: 144, AvgTEGWattsPerServer: 4}
	if _, done, _, _ := runStatus(s); done != "60/144" {
		t.Errorf("progress before the halt renders %s, want 60/144", done)
	}
	s.Progress.Done = 80
	if _, done, _, _ := runStatus(s); done != "80/144" {
		t.Errorf("progress after a resume renders %s, want 80/144", done)
	}
}
