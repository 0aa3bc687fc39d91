package telemetry

import (
	"sync"
	"testing"
	"time"
)

// Len returns the number of spans currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// TestTracerRingWrap fills a small ring past capacity and checks the
// snapshot retains exactly the newest spans, oldest first.
func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record("s", int64(i), tr.epoch.Add(time.Duration(i)), time.Duration(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		want := int64(6 + i) // spans 6..9 survive, in recording order
		if s.Arg != want {
			t.Errorf("span %d: arg = %d, want %d", i, s.Arg, want)
		}
	}
}

// TestTracerPartialRing checks the pre-wrap path: snapshot order matches
// recording order when the ring is not yet full.
func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Record("s", int64(i), tr.epoch, 0)
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Arg != int64(i) {
			t.Errorf("span %d: arg = %d, want %d", i, s.Arg, i)
		}
	}
}

// TestTracerNil checks the disabled tracer is fully inert.
func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Record("s", 0, time.Now(), time.Second)
	if tr.Len() != 0 || tr.Total() != 0 || tr.Snapshot() != nil {
		t.Error("nil tracer must record nothing")
	}
}

// TestTracerDefaultCapacity checks capacity <= 0 selects the default.
func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if cap(tr.spans) != DefaultTraceCapacity {
		t.Errorf("cap = %d, want %d", cap(tr.spans), DefaultTraceCapacity)
	}
}

// TestTracerConcurrentRecord hammers Record and Snapshot from many goroutines
// — the race detector (make race runs this file with -race) is the real
// assertion; the counts check that no record was lost.
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	const writers, perWriter = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: snapshots must stay well-formed
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if spans := tr.Snapshot(); len(spans) > 64 {
				t.Errorf("snapshot longer than ring: %d", len(spans))
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record("s", int64(w*perWriter+i), tr.epoch, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if tr.Total() != writers*perWriter {
		t.Errorf("Total = %d, want %d", tr.Total(), writers*perWriter)
	}
	if tr.Len() != 64 {
		t.Errorf("Len = %d, want full ring of 64", tr.Len())
	}
}
