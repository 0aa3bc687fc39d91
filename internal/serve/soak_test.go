package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
)

// TestServeRetainedHeapPerRun soaks one server with small runs and checks
// what each finished run leaves behind on the heap. A finished run keeps its
// status, result bytes and journal recorder, but not its engine: the
// recorder's stats readers are frozen to values when the run loop returns,
// so the controller and segment index are collectable.
func TestServeRetainedHeapPerRun(t *testing.T) {
	const (
		warm, soak = 50, 250
		batch      = 25
		// A finished run's engine is tens of KiB (the controller's 32 KiB
		// bucket array alone); what a run may keep is well below that.
		maxPerRun = 24 << 10
	)
	_, ts, _ := testServer(t, nil)

	served := 0
	serve := func(total int) {
		for served < total {
			ids := make([]string, 0, batch)
			for k := 0; k < batch && served < total; k++ {
				served++
				body := fmt.Sprintf(`{"trace":{"class":"drastic","servers":60,"seed":%d,"intervals":24},"scheme":"loadbalance"}`, served)
				resp := submit(t, ts, "soak", body)
				if resp.StatusCode != http.StatusAccepted {
					resp.Body.Close()
					t.Fatalf("submit %d: status %d", served, resp.StatusCode)
				}
				ids = append(ids, decodeStatus(t, resp).ID)
			}
			for _, id := range ids {
				if st := waitState(t, ts, id); st.State != StateDone {
					t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
				}
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	serve(warm)
	base := heap()
	serve(soak)
	grown := heap()

	perRun := (int64(grown) - int64(base)) / (soak - warm)
	t.Logf("heap %d KiB after %d runs, %d KiB after %d: %d B retained per run",
		base>>10, warm, grown>>10, soak, perRun)
	if perRun >= maxPerRun {
		t.Errorf("each finished run retains %d B of heap, want < %d", perRun, maxPerRun)
	}
}
