package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// soakRun is the soak's request: a 60 × 24 run, the shape of serve-mixed's
// small runs.
func soakRun(seed int) string {
	return fmt.Sprintf(`{"trace":{"class":"drastic","servers":60,"seed":%d,"intervals":24},"scheme":"loadbalance"}`, seed)
}

// liveHeap returns the heap in use after two full collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServeRetainedHeapPerRun soaks one server per terminal path with small
// runs and checks what each terminal run leaves behind on the heap. A
// terminal run keeps its status fields, its request and, when done, its
// result bytes and headline numbers; its context, done channel, journal
// recorder (and the stats readers it pins) and manifest copy are dropped
// when it ends, and its engine was never held. The hub's per-run summary
// stays too.
func TestServeRetainedHeapPerRun(t *testing.T) {
	const (
		warm, soak = 50, 250
		batch      = 25
		// A done 60 × 24 run keeps about 2.5 KB: the status, the request,
		// the 1.1 KB result JSON and the hub's summary with its manifest.
		maxPerRun = 3 << 10
	)
	paths := []struct {
		name string
		// serve ends runs [from, to) on ts; hold is the running-run gate.
		serve func(t *testing.T, ts *httptest.Server, hold *runHold, from, to int)
		hold  bool
	}{
		{"done", func(t *testing.T, ts *httptest.Server, _ *runHold, from, to int) {
			ids := make([]string, 0, to-from)
			for k := from; k < to; k++ {
				ids = append(ids, submitOK(t, ts, soakRun(k)))
			}
			for _, id := range ids {
				expectState(t, ts, id, StateDone)
			}
		}, false},
		{"cancelled-queued", func(t *testing.T, ts *httptest.Server, _ *runHold, from, to int) {
			// The executor is held on the first run, so every later one
			// is still queued when it is cancelled.
			for k := from; k < to; k++ {
				id := submitOK(t, ts, soakRun(k))
				if st := cancelRun(t, ts, id); st.State != StateCancelled {
					t.Fatalf("queued run %s cancelled into %s", id, st.State)
				}
			}
		}, true},
		{"cancelled-running", func(t *testing.T, ts *httptest.Server, hold *runHold, from, to int) {
			for k := from; k < to; k++ {
				id := submitOK(t, ts, soakRun(k))
				if got := <-hold.started; got != id {
					t.Fatalf("started %s, submitted %s", got, id)
				}
				cancelRun(t, ts, id)
				hold.release <- struct{}{}
				expectState(t, ts, id, StateCancelled)
			}
		}, true},
		{"sweep", func(t *testing.T, ts *httptest.Server, _ *runHold, from, to int) {
			for k := from; k < to; k += batch {
				seeds := make([]string, 0, batch)
				for s := k; s < min(k+batch, to); s++ {
					seeds = append(seeds, fmt.Sprint(s))
				}
				body := fmt.Sprintf(`{"base":{"trace":{"class":"drastic","servers":60,"intervals":24},"scheme":"loadbalance"},"seeds":[%s]}`, strings.Join(seeds, ","))
				for _, id := range submitSweep(t, ts, body) {
					expectState(t, ts, id, StateDone)
				}
			}
		}, false},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			var hold *runHold
			_, ts, _ := testServer(t, func(c *Config) {
				if p.hold {
					c.Executors = 1
					hold = newRunHold()
					c.BeforeRun = hold.beforeRun
				}
			})
			if p.name == "cancelled-queued" {
				// Pin the executor for the whole soak; release it before
				// the server closes.
				submitOK(t, ts, soakRun(0))
				<-hold.started
				t.Cleanup(func() { hold.release <- struct{}{} })
			}
			serve := func(from, to int) {
				for k := from; k < to; k += batch {
					p.serve(t, ts, hold, k+1, min(k+batch, to)+1)
				}
			}
			serve(0, warm)
			base := liveHeap()
			serve(warm, soak)
			grown := liveHeap()

			perRun := (int64(grown) - int64(base)) / (soak - warm)
			t.Logf("heap %d KiB after %d runs, %d KiB after %d: %d B retained per run",
				base>>10, warm, grown>>10, soak, perRun)
			if perRun >= maxPerRun {
				t.Errorf("each %s run retains %d B of heap, want < %d", p.name, perRun, maxPerRun)
			}
		})
	}
}

// runHold holds each run at BeforeRun until the test releases it.
type runHold struct {
	started chan string
	release chan struct{}
}

func newRunHold() *runHold {
	return &runHold{started: make(chan string, 1), release: make(chan struct{})}
}

func (h *runHold) beforeRun(id string) {
	h.started <- id
	<-h.release
}

func submitOK(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp := submit(t, ts, "soak", body)
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return decodeStatus(t, resp).ID
}

func submitSweep(t *testing.T, ts *httptest.Server, body string) []string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d", resp.StatusCode)
	}
	var sw SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	return sw.Runs
}

func cancelRun(t *testing.T, ts *httptest.Server, id string) *RunStatus {
	t.Helper()
	resp, err := doDelete(ts.URL + "/api/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
	}
	return decodeStatus(t, resp)
}

func expectState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	if st := waitState(t, ts, id); st.State != want {
		t.Fatalf("run %s ended %s, want %s: %s", id, st.State, want, st.Error)
	}
}
