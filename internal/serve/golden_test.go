package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// journalWallClock matches the /runs summary fields the journal stamps from
// its own wall clock (record times, progress rates, the done record's wall
// time and the pipeline's timing counters). Every other byte is pinned.
var journalWallClock = regexp.MustCompile(`("(?:first_ms|last_ms|wall_ms|intervals_per_sec|eta_ms|decode_seconds|merge_waits|merge_wait_seconds)": )[^,\n]+|("step_seconds": )\[[^\]]*\]`)

func maskJournalWallClock(b []byte) []byte {
	return journalWallClock.ReplaceAll(b, []byte("${1}${2}<wall>"))
}

// TestServeTerminalResponsesGolden pins the bytes of every response about
// a terminal run — a done run and a run cancelled while queued — against a
// transcript written with a fake server clock: the run status (with and
// without ?wait), the run list, the result document and its X-Result-Hash,
// the 409 for the cancelled run's result, the DELETE response, and the
// /runs summaries with only the journal's wall-clock fields masked. The
// host environment is fixed, so the transcript does not depend on the
// machine. Run with -update to rewrite testdata/terminal.golden.
func TestServeTerminalResponsesGolden(t *testing.T) {
	var clockMu sync.Mutex
	clock := time.Date(2020, 5, 30, 12, 0, 0, 0, time.UTC)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock = clock.Add(time.Millisecond)
		return clock
	}
	started := make(chan string, 2)
	release := make(chan struct{})
	s := NewServer(Config{
		Recorder:  obs.NewRecorder(io.Discard),
		Executors: 1,
		Now:       now,
		BeforeRun: func(id string) { started <- id; <-release },
	})
	s.env = obs.Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "golden", Commit: "golden"}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close() //nolint:errcheck // test teardown
		ts.Close()
	})

	const body = `{"trace":{"class":"drastic","servers":50,"seed":1,"intervals":8},"scheme":"loadbalance","workers":1}`
	done := decodeStatus(t, submit(t, ts, "acme", body))
	<-started // the one executor holds the first run, so the second stays queued
	queued := decodeStatus(t, submit(t, ts, "acme", body))
	cancel, err := doDelete(ts.URL + "/api/v1/runs/" + queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	var transcript bytes.Buffer
	record := func(method, path string, resp *http.Response, mask bool) {
		t.Helper()
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if mask {
			b = maskJournalWallClock(b)
		}
		fmt.Fprintf(&transcript, "### %s %s -> %d", method, path, resp.StatusCode)
		if h := resp.Header.Get("X-Result-Hash"); h != "" {
			fmt.Fprintf(&transcript, " X-Result-Hash: %s", h)
		}
		fmt.Fprintf(&transcript, "\n%s", b)
	}
	record("DELETE", "/api/v1/runs/"+queued.ID, cancel, false)
	close(release)
	if st := waitState(t, ts, done.ID); st.State != StateDone {
		t.Fatalf("run %s ended %s: %s", done.ID, st.State, st.Error)
	}

	for _, path := range []string{
		"/api/v1/runs/" + done.ID,
		"/api/v1/runs/" + done.ID + "?wait=1s",
		"/api/v1/runs/" + done.ID + "/result",
		"/api/v1/runs/" + queued.ID,
		"/api/v1/runs/" + queued.ID + "?wait=1s",
		"/api/v1/runs/" + queued.ID + "/result",
		"/api/v1/runs",
		"/api/v1/runs?state=cancelled",
	} {
		record("GET", path, mustGet(t, ts.URL+path), false)
	}
	record("GET", "/runs", mustGet(t, ts.URL+"/runs"), true)

	golden := filepath.Join("testdata", "terminal.golden")
	if *update {
		if err := os.WriteFile(golden, transcript.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := transcript.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("terminal-run responses differ from %s at %s", golden, firstDiffLine(got, want))
	}
}
