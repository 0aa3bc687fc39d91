package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/obs"
)

// BenchmarkServeFinishedRun serves small 60 × 24 runs through the server's
// handler (submit, then a blocking ?wait status fetch) with one executor,
// so one op is one run from admission to its terminal state. Besides the
// time and allocations per run it reports retained-B/run: the live heap
// the finished runs add, after two collections, divided by b.N.
func BenchmarkServeFinishedRun(b *testing.B) {
	s := NewServer(Config{Recorder: obs.NewRecorder(io.Discard), Executors: 1})
	h := s.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	run := func(seed int) {
		w := serve(http.MethodPost, "/api/v1/runs", soakRun(seed))
		var st RunStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
			b.Fatalf("submit: status %d: %s", w.Code, w.Body.Bytes())
		}
		w = serve(http.MethodGet, "/api/v1/runs/"+st.ID+"?wait=1m", "")
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.State != StateDone {
			b.Fatalf("run %s: %s", st.ID, w.Body.Bytes())
		}
	}
	run(0) // builds the fleet's look-up space
	base := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i + 1)
	}
	b.StopTimer()
	grown := liveHeap()
	b.ReportMetric(float64(int64(grown)-int64(base))/float64(b.N), "retained-B/run")
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
