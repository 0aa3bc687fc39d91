package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/obs"
)

func envForTest() obs.Environment { return obs.CaptureEnvironment() }

// smallRun is the conformance suite's workhorse request: two circulations,
// eight intervals — milliseconds of simulation.
const smallRun = `{"trace":{"class":"drastic","servers":50,"seed":1,"intervals":8},"scheme":"loadbalance"}`

// testServer builds a server over a journal file in a temp dir and serves it
// via httptest. The caller may Drain explicitly; cleanup closes everything.
func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, string) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "runs.jsonl")
	rec, err := obs.Create(journal, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Recorder: rec, Executors: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close() //nolint:errcheck // idempotent after an explicit Drain
		ts.Close()
		rec.Close() //nolint:errcheck
	})
	return s, ts, journal
}

func submit(t *testing.T, ts *httptest.Server, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) *RunStatus {
	t.Helper()
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func waitState(t *testing.T, ts *httptest.Server, id string) *RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/runs/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s", id, st.State)
		}
	}
}

func readJournal(t *testing.T, s *Server, path string) []obs.Record {
	t.Helper()
	if err := s.rec.Flush(); err != nil {
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
	return records
}

func TestServeSubmitRunToCompletion(t *testing.T) {
	s, ts, journal := testServer(t, nil)
	resp := submit(t, ts, "acme", smallRun)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.Tenant != "acme" || st.State != StateQueued || st.ConfigHash == "" {
		t.Fatalf("submit response = %+v", st)
	}

	final := waitState(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.AvgTEGWattsPerServer <= 0 {
		t.Fatalf("done status carries no result: %+v", final.Result)
	}
	if final.ResultHash == "" {
		t.Fatal("done status has no result hash")
	}

	// The result document matches its advertised hash and is byte-stable.
	var bodies [2][]byte
	for i := range bodies {
		r, err := http.Get(ts.URL + "/api/v1/runs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatal("result document changed between fetches")
	}
	if HashBytes(bodies[0]) != final.ResultHash {
		t.Fatalf("result hash %s != advertised %s", HashBytes(bodies[0]), final.ResultHash)
	}

	// The server-born run is a first-class obs run: journaled manifest and
	// done record, visible at the live /runs endpoint under its run key.
	records := readJournal(t, s, journal)
	var manifests, dones int
	for _, r := range records {
		switch {
		case r.Manifest != nil && r.Manifest.RunID == st.ID:
			manifests++
		case r.Type == "done" && strings.HasPrefix(r.Run, st.ID+"/"):
			dones++
		}
	}
	if manifests != 1 || dones != 1 {
		t.Fatalf("journal has %d manifests / %d dones for run %s", manifests, dones, st.ID)
	}
	lr, err := http.Get(ts.URL + "/runs/" + final.Run)
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Fatalf("live /runs/%s = %d, want 200", final.Run, lr.StatusCode)
	}
}

// TestServeJournalTrafficShape pins what one small run costs the journal:
// its manifest, at most two progress records (the wall-clock cadence writes
// one per second of run, and this run takes milliseconds) ending at the
// final interval, then its done record. The live summary shows the same
// final position.
func TestServeJournalTrafficShape(t *testing.T) {
	s, ts, journal := testServer(t, nil)
	const body = `{"trace":{"class":"drastic","servers":60,"seed":1,"intervals":24},"scheme":"loadbalance"}`
	resp := submit(t, ts, "acme", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	final := waitState(t, ts, decodeStatus(t, resp).ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}

	var types []string
	var last *obs.Progress
	for _, r := range readJournal(t, s, journal) {
		if r.Run != final.Run {
			continue
		}
		types = append(types, r.Type)
		if r.Type == "progress" {
			last = r.Progress
		}
	}
	n := len(types)
	if n < 3 || n > 4 || types[0] != "manifest" || types[n-1] != "done" {
		t.Fatalf("journal records for %s = %v, want manifest, 1-2 progress, done", final.Run, types)
	}
	for _, typ := range types[1 : n-1] {
		if typ != "progress" {
			t.Fatalf("journal records for %s = %v, want manifest, 1-2 progress, done", final.Run, types)
		}
	}
	if last.Done != 24 || last.Total != 24 {
		t.Errorf("last progress at %d/%d, want 24/24", last.Done, last.Total)
	}

	lr := mustGet(t, ts.URL+"/runs/"+final.Run)
	defer lr.Body.Close()
	var sum obs.RunSummary
	if err := json.NewDecoder(lr.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Progress == nil || sum.Progress.Done != 24 || sum.Progress.Total != 24 || sum.Records != n {
		t.Errorf("live summary progress = %+v over %d records, want 24/24 over %d", sum.Progress, sum.Records, n)
	}
}

func TestServeRejections(t *testing.T) {
	_, ts, _ := testServer(t, func(c *Config) { c.MaxBodyBytes = 512 })
	cases := []struct {
		name, tenant, body string
		want               int
	}{
		{"malformed JSON", "a", `{"trace":`, http.StatusBadRequest},
		{"unknown field", "a", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","bogus":1}`, http.StatusBadRequest},
		{"invalid request", "a", `{"trace":{"class":"drastic","servers":0},"scheme":"lb"}`, http.StatusBadRequest},
		{"oversize body", "a", `{"fault_plan":"` + strings.Repeat("x", 2048) + `"}`, http.StatusRequestEntityTooLarge},
		{"bad tenant", "no spaces allowed", smallRun, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := submit(t, ts, tc.tenant, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("rejection body is not an error envelope: %v %+v", err, e)
			}
		})
	}
}

func TestServeRejectionsCapConfig(t *testing.T) {
	// checkShape is what "over server cap" above exercises; pin the knob.
	_, ts, _ := testServer(t, func(c *Config) { c.MaxServers = 1000 })
	resp := submit(t, ts, "a", `{"trace":{"class":"drastic","servers":1500},"scheme":"lb"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap submit = %d, want 400", resp.StatusCode)
	}
}

func TestServeQuota429(t *testing.T) {
	_, ts, _ := testServer(t, func(c *Config) {
		c.Quota = Quota{SubmitBurst: 2}
	})
	for i := 0; i < 2; i++ {
		resp := submit(t, ts, "acme", smallRun)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submit(t, ts, "acme", smallRun)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Another tenant's bucket is untouched.
	other := submit(t, ts, "globex", smallRun)
	other.Body.Close()
	if other.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant submit = %d, want 202", other.StatusCode)
	}

	tr, err := http.Get(ts.URL + "/api/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var tenants []TenantStatus
	if err := json.NewDecoder(tr.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 || tenants[0].Tenant != "acme" || tenants[0].Accepted != 2 || tenants[0].RejectedRate != 1 {
		t.Fatalf("tenant rows = %+v", tenants)
	}
}

func TestServeCancelRunning(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 4)
	s, ts, journal := testServer(t, func(c *Config) {
		c.BeforeRun = func(id string) { started <- id; <-gate }
	})
	st := decodeStatus(t, submit(t, ts, "a", smallRun))
	id := <-started
	if id != st.ID {
		t.Fatalf("started run %s, submitted %s", id, st.ID)
	}

	dresp, err := doDelete(ts.URL + "/api/v1/runs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", dresp.StatusCode)
	}
	close(gate)

	final := waitState(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled run ended %s", final.State)
	}
	// Cancelling is idempotent on a terminal run.
	again, err := doDelete(ts.URL + "/api/v1/runs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	again.Body.Close()
	if again.StatusCode != http.StatusAccepted {
		t.Fatalf("re-cancel = %d, want 202", again.StatusCode)
	}
	// The journal records the halt; it never records a done for this run.
	var halts, dones int
	for _, r := range readJournal(t, s, journal) {
		if !strings.HasPrefix(r.Run, st.ID+"/") {
			continue
		}
		switch {
		case r.Event != nil && r.Event.Kind == obs.EventHalt:
			halts++
		case r.Type == "done":
			dones++
		}
	}
	if halts != 1 || dones != 0 {
		t.Fatalf("journal: %d halts, %d dones for cancelled run", halts, dones)
	}
	// The result endpoint reports the cancellation, not a hang.
	rr, err := http.Get(ts.URL + "/api/v1/runs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled run result = %d, want 409", rr.StatusCode)
	}
}

func TestServeCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 4)
	s, ts, journal := testServer(t, func(c *Config) {
		c.Executors = 1
		c.BeforeRun = func(id string) { started <- id; <-gate }
	})
	first := decodeStatus(t, submit(t, ts, "a", smallRun))
	<-started // the single executor is now pinned on the first run
	second := decodeStatus(t, submit(t, ts, "a", smallRun))

	dresp, err := doDelete(ts.URL + "/api/v1/runs/" + second.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := decodeStatus(t, dresp)
	if cancelled.State != StateCancelled {
		t.Fatalf("queued cancel state = %s, want immediate cancelled", cancelled.State)
	}
	close(gate)
	if st := waitState(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("first run ended %s (%s)", st.State, st.Error)
	}
	var halts int
	for _, r := range readJournal(t, s, journal) {
		if strings.HasPrefix(r.Run, second.ID+"/") && r.Event != nil && r.Event.Kind == obs.EventHalt {
			halts++
		}
	}
	if halts != 1 {
		t.Fatalf("queued-cancelled run journaled %d halt events, want 1", halts)
	}
}

func TestServeGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 64)
	s, ts, _ := testServer(t, func(c *Config) {
		c.Executors = 2
		c.BeforeRun = func(id string) { started <- id; <-gate }
	})
	a := decodeStatus(t, submit(t, ts, "a", smallRun))
	b := decodeStatus(t, submit(t, ts, "b", smallRun))
	<-started
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Drain marks the server draining before it waits, but give the
	// goroutine a beat to get there, then verify submissions bounce.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := submit(t, ts, "c", smallRun)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("draining 503 without Retry-After")
			}
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit while draining = %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started rejecting submissions")
		}
	}

	close(gate) // release the in-flight runs; drain must complete them
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st := decodeStatus(t, mustGet(t, ts.URL+"/api/v1/runs/"+id))
		if st.State != StateDone && st.State != StateCancelled {
			t.Fatalf("post-drain run %s state = %s", id, st.State)
		}
		// Runs accepted before draining began (a and b were gated pre-drain)
		// must complete, not be cancelled.
		if (id == a.ID || id == b.ID) && st.State != StateDone {
			t.Fatalf("drain cancelled pre-accepted run %s (state %s)", id, st.State)
		}
	}
	// Post-drain submissions stay rejected.
	resp := submit(t, ts, "a", smallRun)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
	}
	// The hub is shut down: SSE streams terminate with the shutdown frame
	// (covered in internal/obs); Done() must be closed.
	select {
	case <-s.hub.Done():
	default:
		t.Fatal("hub not shut down after drain")
	}
}

func TestServeSweep(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	body := `{"base":{"trace":{"class":"drastic","servers":50,"seed":1,"intervals":8},"scheme":"original"},
	          "schemes":["original","loadbalance"],"seeds":[1,2]}`
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit = %d, want 202", resp.StatusCode)
	}
	var sw SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Runs) != 4 {
		t.Fatalf("sweep expanded to %d runs, want 4", len(sw.Runs))
	}
	for _, id := range sw.Runs {
		if st := waitState(t, ts, id); st.State != StateDone {
			t.Fatalf("sweep run %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	final, err := http.Get(ts.URL + "/api/v1/sweeps/" + sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Body.Close()
	var folded SweepStatus
	if err := json.NewDecoder(final.Body).Decode(&folded); err != nil {
		t.Fatal(err)
	}
	if folded.State != StateDone || folded.States[StateDone] != 4 {
		t.Fatalf("folded sweep = %+v", folded)
	}
}

func TestServeSweepAtomicRejection(t *testing.T) {
	_, ts, _ := testServer(t, func(c *Config) { c.Quota = Quota{SubmitBurst: 3} })
	body := `{"base":{"trace":{"class":"drastic","servers":50,"intervals":8},"scheme":"original"},"seeds":[1,2,3,4]}`
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("4-run sweep against 3-token bucket = %d, want 429", resp.StatusCode)
	}
	// Nothing was admitted: the full allowance still fits.
	body3 := `{"base":{"trace":{"class":"drastic","servers":50,"intervals":8},"scheme":"original"},"seeds":[1,2,3]}`
	resp3, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body3))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("3-run sweep after rejected 4-run sweep = %d, want 202", resp3.StatusCode)
	}
}

func TestServeGlobalQueueBound(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 8)
	_, ts, _ := testServer(t, func(c *Config) {
		c.Queue = 2
		c.Executors = 1
		c.BeforeRun = func(string) { started <- struct{}{}; <-gate }
	})
	// The first run occupies the executor (leaving the queue), the next two
	// fill the queue, and with the executor pinned the fourth submission has
	// nowhere to go: a deterministic 503.
	first := submit(t, ts, "t0", smallRun)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", first.StatusCode)
	}
	<-started
	for i := 1; i < 3; i++ {
		resp := submit(t, ts, fmt.Sprintf("t%d", i), smallRun)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submit(t, ts, "overflow", smallRun)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 503 without Retry-After")
	}
}

func TestServeUnknownRoutes(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	for path, want := range map[string]int{
		"/api/v1/runs/r999999": http.StatusNotFound,
		"/api/v1/nope":         http.StatusNotFound,
		"/healthz":             http.StatusOK, // telemetry fallthrough
		"/metrics":             http.StatusOK,
		"/runs":                http.StatusOK, // obs fallthrough
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(ts.URL+"/api/v1/tenants", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/tenants = %d, want 405", resp.StatusCode)
	}
}

func doDelete(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
