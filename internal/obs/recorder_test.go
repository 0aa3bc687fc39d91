package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/units"
)

// fakeClock advances a fixed step per read so wall/ips/ETA are deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func testManifest(total int) Manifest {
	return Manifest{
		RunID: "r1", Trace: "alibaba-drastic", Class: "drastic",
		Servers: 50, Intervals: total, IntervalSeconds: 300,
		Config: RunConfig{Servers: 50, ServersPerCirculation: 5, Scheme: "TEG_Original",
			Workers: 2, Seed: 42, Streaming: true},
		Env: Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NumCPU: 2},
	}
}

func intervalResult(w float64, degraded int) core.IntervalResult {
	return core.IntervalResult{TEGPowerPerServer: units.Watts(w), DegradedCirculations: degraded}
}

// TestJournalRoundTrip drives a full run through the recorder and reads the
// journal back record by record.
func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	clock := &fakeClock{t: time.UnixMilli(1_000_000), step: 100 * time.Millisecond}
	rec.now = clock.now

	rr := NewRunRecorder(rec, testManifest(6), 2)
	if got, want := rr.Run(), "r1/alibaba-drastic/TEG_Original"; got != want {
		t.Fatalf("run key = %q, want %q", got, want)
	}
	rr.AttachCacheStats(func() (uint64, uint64) { return 30, 40 })
	rr.AttachShardStats(func() core.ShardStats {
		return core.ShardStats{Shards: 2, MergeWaits: 3, MergeWaitSeconds: 0.25, StepSeconds: []float64{1, 2}}
	})
	for i := 0; i < 4; i++ {
		rr.ObserveInterval(i, intervalResult(4.0, 0))
	}
	rr.ObserveCheckpoint(4)
	rr.ObserveHalt(4)
	rr.Done(&core.Result{AvgTEGPowerPerServer: 4, PeakTEGPowerPerServer: 5, PRE: 0.14})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, r := range records {
		types = append(types, r.Type)
	}
	want := []string{"manifest", "progress", "progress", "event", "event", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("record types = %v, want %v", types, want)
	}

	m := records[0]
	if m.V != JournalVersion {
		t.Errorf("manifest record v = %d, want %d", m.V, JournalVersion)
	}
	if m.Manifest.ConfigHash == "" || m.Manifest.ConfigHash != testManifest(6).Hash() {
		t.Errorf("manifest hash %q does not match recomputation %q",
			m.Manifest.ConfigHash, testManifest(6).Hash())
	}

	p := records[1].Progress
	if p.Interval != 1 || p.Done != 2 || p.Total != 6 {
		t.Errorf("first progress position = %+v", p)
	}
	if p.AvgTEGWattsPerServer != 4.0 {
		t.Errorf("running avg = %v, want 4", p.AvgTEGWattsPerServer)
	}
	if p.CacheHitRate != 0.75 {
		t.Errorf("cache hit rate = %v, want 0.75", p.CacheHitRate)
	}
	if p.Shard == nil || p.Shard.Shards != 2 || p.Shard.MergeWaits != 3 || len(p.Shard.StepSeconds) != 2 {
		t.Errorf("shard progress = %+v", p.Shard)
	}
	if p.WallMS <= 0 || p.IntervalsPerSec <= 0 || p.EtaMS <= 0 {
		t.Errorf("progress rates not populated: %+v", p)
	}

	if e := records[3].Event; e.Kind != EventCheckpoint || e.Interval != 4 {
		t.Errorf("checkpoint event = %+v", e)
	}
	if e := records[4].Event; e.Kind != EventHalt || e.Interval != 4 {
		t.Errorf("halt event = %+v", e)
	}
	d := records[5].Done
	if d.Intervals != 6 || d.AvgTEGWattsPerServer != 4 || d.PRE != 0.14 || d.Faults != nil {
		t.Errorf("done record = %+v", d)
	}

	sums := Summarize(records)
	if len(sums) != 1 {
		t.Fatalf("Summarize returned %d runs", len(sums))
	}
	s := sums[0]
	if s.Checkpoints != 1 || s.Halts != 1 || s.Done == nil || s.Manifest == nil || s.Records != 6 {
		t.Errorf("summary = %+v", s)
	}
}

// TestRunRecorderDegradedEventOnce pins the bounded degradation event: many
// degraded intervals, exactly one event record.
func TestRunRecorderDegradedEventOnce(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rr := NewRunRecorder(rec, testManifest(100), 1000)
	for i := 0; i < 10; i++ {
		rr.ObserveInterval(i, intervalResult(4, 3))
	}
	rr.progress(9, rec.clock())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, r := range records {
		if r.Type == "event" && r.Event.Kind == EventDegraded {
			events++
		}
	}
	if events != 1 {
		t.Errorf("degraded events = %d, want exactly 1", events)
	}
	last := records[len(records)-1]
	if last.Type != "progress" || last.Progress.DegradedIntervals != 30 {
		t.Errorf("final progress degraded count = %+v", last)
	}
}

// TestRunRecorderFaultSummary pins the done record's fault block.
func TestRunRecorderFaultSummary(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rr := NewRunRecorder(rec, testManifest(4), 0)
	res := &core.Result{Faults: core.FaultSummary{DegradedIntervals: 7, PumpDroops: 2}}
	rr.Done(res)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := records[len(records)-1].Done
	if d.Faults == nil || d.Faults.DegradedIntervals != 7 || d.Faults.PumpDroops != 2 {
		t.Errorf("done faults = %+v", d.Faults)
	}
}

// TestJournalVersionGate: a record from a future schema version must be
// rejected, not misread.
func TestJournalVersionGate(t *testing.T) {
	in := strings.NewReader(`{"v":99,"type":"manifest","run":"x","t_ms":1}`)
	if _, err := ReadJournal(in); err == nil || !strings.Contains(err.Error(), "v99") {
		t.Errorf("future version error = %v", err)
	}
}

func TestJournalRejectsMalformed(t *testing.T) {
	// A malformed line is an error when a newline ends it; only an
	// unterminated final line is read as a torn tail (TestJournalTornTail).
	for _, bad := range []string{"not json\n", "not json\n" + `{"type":"done","run":"x","t_ms":1}`, `{"run":"x"}`} {
		if _, err := ReadJournal(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadJournal(%q) accepted", bad)
		}
	}
	// Blank lines and unknown record types are tolerated.
	ok := "\n" + `{"type":"future-thing","run":"x","t_ms":1}` + "\n"
	records, err := ReadJournal(strings.NewReader(ok))
	if err != nil || len(records) != 1 {
		t.Errorf("tolerant read = %v records, err %v", len(records), err)
	}
}

// TestJournalTornTail: a crash that tore the last record leaves an
// unterminated line that does not parse; the reader drops it and keeps every
// complete record before it.
func TestJournalTornTail(t *testing.T) {
	rec := `{"type":"progress","run":"x","t_ms":1}` + "\n"
	for _, torn := range []string{`{"type":"do`, `{`, "\x00\x00"} {
		records, err := ReadJournal(strings.NewReader(rec + rec + torn))
		if err != nil || len(records) != 2 {
			t.Errorf("torn tail %q: %d records, err %v; want 2 records", torn, len(records), err)
		}
	}
}

// TestJournalOversizedLine: a line past the reader's bound is an error that
// names the line, not the scanner's bare "token too long".
func TestJournalOversizedLine(t *testing.T) {
	rec := `{"type":"progress","run":"x","t_ms":1}` + "\n"
	long := `{"type":"event","run":"x","t_ms":1,"event":{"kind":"note","detail":"` + strings.Repeat("x", 100) + `"}}` + "\n"
	_, err := readJournal(strings.NewReader(rec+long+rec), 64)
	if err == nil || !strings.Contains(err.Error(), "line 2 is longer than 64 bytes") {
		t.Errorf("oversized line error = %v", err)
	}
	if records, err := readJournal(strings.NewReader(rec+long+rec), 256); err != nil || len(records) != 3 {
		t.Errorf("line under the bound: %d records, err %v", len(records), err)
	}
}

// TestCreateAppendTruncatesTornTail: appending to a journal whose last
// record was torn first cuts the torn bytes, so the appended records start
// on a line of their own and the file reads back whole.
func TestCreateAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	whole := `{"type":"progress","run":"x","t_ms":1}` + "\n"
	for _, torn := range []string{"", `{"type":"prog`, strings.Repeat("x", 9000)} {
		if err := os.WriteFile(path, []byte(whole+torn), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Create(path, true)
		if err != nil {
			t.Fatal(err)
		}
		r.write(&Record{Type: "done", Run: "x"})
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), whole+`{"type":"done"`) {
			t.Errorf("torn tail %q: journal after append = %q", torn[:min(len(torn), 20)], data)
		}
		records, err := ReadJournal(strings.NewReader(string(data)))
		if err != nil || len(records) != 2 {
			t.Errorf("torn tail %q: read back %d records, err %v", torn[:min(len(torn), 20)], len(records), err)
		}
	}
}

// TestManifestHashSensitivity: the hash must move with the knobs that change
// results, and hold still otherwise.
func TestManifestHashSensitivity(t *testing.T) {
	a := testManifest(6)
	b := testManifest(6)
	if a.Hash() != b.Hash() {
		t.Error("identical manifests hash differently")
	}
	b.Config.Scheme = "TEG_LoadBalance"
	if a.Hash() == b.Hash() {
		t.Error("scheme change did not move the hash")
	}
	c := testManifest(6)
	c.Env.GoVersion = "go9.99"
	if a.Hash() != c.Hash() {
		t.Error("environment leaked into the config hash")
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRecorderStickyError: the first write error parks the recorder; later
// writes are no-ops and Err reports the failure.
func TestRecorderStickyError(t *testing.T) {
	rec := NewRecorder(&errWriter{n: 0})
	rr := NewRunRecorder(rec, testManifest(4), 1)
	for i := 0; i < 4; i++ {
		rr.ObserveInterval(i, intervalResult(4, 0))
	}
	if err := rec.Flush(); err == nil {
		t.Fatal("flush after failed write returned nil")
	}
	if rec.Err() == nil {
		t.Fatal("Err() nil after write failure")
	}
	rr.ObserveCheckpoint(4) // must not panic
}

// TestNilRecorderSafe: every method on nil receivers is a no-op.
func TestNilRecorderSafe(t *testing.T) {
	var rec *Recorder
	rec.SetHub(nil)
	if err := rec.Flush(); err != nil {
		t.Error(err)
	}
	if err := rec.Close(); err != nil {
		t.Error(err)
	}
	if rec.Err() != nil {
		t.Error("nil recorder has an error")
	}
	var rr *RunRecorder
	if rr2 := NewRunRecorder(nil, testManifest(4), 1); rr2 != nil {
		t.Error("NewRunRecorder(nil, ...) != nil")
	}
	rr.ObserveInterval(0, core.IntervalResult{})
	rr.ObserveCheckpoint(1)
	rr.ObserveResume(1)
	rr.ObserveHalt(1)
	rr.Event(EventNote, 0, "x")
	rr.Done(&core.Result{})
	rr.AttachCacheStats(nil)
	rr.AttachShardStats(nil)
	if rr.Run() != "" {
		t.Error("nil run key not empty")
	}
}

// TestNilRunRecorderZeroAllocs pins the disabled hot path: observing an
// interval on a nil recorder is one branch, zero allocations.
func TestNilRunRecorderZeroAllocs(t *testing.T) {
	var rr *RunRecorder
	ir := intervalResult(4, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		rr.ObserveInterval(3, ir)
	})
	if allocs != 0 {
		t.Errorf("nil RunRecorder.ObserveInterval allocates %v per call, want 0", allocs)
	}
}

// TestLiveRunRecorderZeroAllocs pins the enabled hot path: observing an
// interval on a live recorder with no progress due reads the clock and
// allocates nothing.
func TestLiveRunRecorderZeroAllocs(t *testing.T) {
	rec := NewRecorder(io.Discard)
	clock := &fakeClock{t: time.UnixMilli(1_000_000)} // stopped: no progress ever falls due
	rec.now = clock.now
	rr := NewRunRecorder(rec, testManifest(1<<30), 0)
	ir := intervalResult(4, 0)
	rr.ObserveInterval(0, ir) // arms the wall-clock cadence
	allocs := testing.AllocsPerRun(1000, func() {
		rr.ObserveInterval(3, ir)
	})
	if allocs != 0 {
		t.Errorf("live RunRecorder.ObserveInterval allocates %v per call, want 0", allocs)
	}
}

// progressAt runs total intervals through a recorder with the given cadence
// and returns the intervals its progress records carry. The fake clock
// advances step per read, and gap before the first interval.
func progressAt(t *testing.T, total, every int, step, gap time.Duration) []int {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	clock := &fakeClock{t: time.UnixMilli(1_000_000), step: step}
	rec.now = clock.now
	rr := NewRunRecorder(rec, testManifest(total), every)
	clock.t = clock.t.Add(gap)
	for i := 0; i < total; i++ {
		rr.ObserveInterval(i, intervalResult(1, 0))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var at []int
	for _, r := range records {
		if r.Type == "progress" {
			at = append(at, r.Progress.Interval)
		}
	}
	return at
}

// TestRunRecorderProgressCadence: a positive cadence writes every N
// intervals plus the final one; the default writes by wall clock, at most
// one record per progressPeriod plus the final one, timed from the first
// observed interval.
func TestRunRecorderProgressCadence(t *testing.T) {
	for _, c := range []struct {
		name      string
		total     int
		every     int
		step, gap time.Duration
		want      []int
	}{
		// Cadence 3 over 7 intervals: after intervals 2 and 5, plus the final 6.
		{"every 3", 7, 3, time.Millisecond, 0, []int{2, 5, 6}},
		// 100 intervals in 0.1 s of run: only the final record.
		{"wall 1ms steps", 100, 0, time.Millisecond, 0, []int{99}},
		// One clock read per interval with no record due: intervals 1-3 sit
		// 0.4, 0.8 and 1.2 s after interval 0, so every third interval is due.
		{"wall 400ms steps", 11, 0, 400 * time.Millisecond, 0, []int{3, 6, 9, 10}},
		// Queued 5 s after the manifest: the wait does not make interval 0 due.
		{"wall 5s queue gap", 3, 0, time.Millisecond, 5 * time.Second, []int{2}},
	} {
		if got := progressAt(t, c.total, c.every, c.step, c.gap); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: progress intervals = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSummarizeGroupsConcurrentRuns: interleaved records from two runs fold
// into two summaries.
func TestSummarizeGroupsConcurrentRuns(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	m1 := testManifest(4)
	m2 := testManifest(4)
	m2.Config.Scheme = "TEG_LoadBalance"
	rr1 := NewRunRecorder(rec, m1, 1)
	rr2 := NewRunRecorder(rec, m2, 1)
	rr1.ObserveInterval(0, intervalResult(4, 0))
	rr2.ObserveInterval(0, intervalResult(5, 0))
	rr1.Done(&core.Result{})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(records)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	// Sorted by run key: LoadBalance before Original.
	if sums[0].Run != "r1/alibaba-drastic/TEG_LoadBalance" || sums[0].Done != nil {
		t.Errorf("first summary = %+v", sums[0])
	}
	if sums[1].Run != "r1/alibaba-drastic/TEG_Original" || sums[1].Done == nil {
		t.Errorf("second summary = %+v", sums[1])
	}
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
