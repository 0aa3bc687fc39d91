package obs

import (
	"bytes"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
)

// lineCounter counts the journal records written through it.
type lineCounter struct{ lines int }

func (w *lineCounter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// BenchmarkRunRecorder measures one run's journal traffic on the wall clock:
// the manifest NewRunRecorder writes, every interval observed, and the done
// record, with one live-hub subscriber draining the records as an SSE
// stream would. The journal goes to a writer that only counts its lines, so
// ns/run is the encode and publish cost, not the disk's. Shapes: the small
// run h2pserved takes most of (24 intervals, two hours) and the paper's
// 12-hour run (144 intervals).
func BenchmarkRunRecorder(b *testing.B) {
	for _, bc := range []struct {
		name      string
		intervals int
	}{
		{"serve-small-24", 24},
		{"paper-144", 144},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := &lineCounter{}
			rec := NewRecorder(w)
			hub := NewHub()
			rec.SetHub(hub)
			ch, cancel := hub.Subscribe("")
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range ch {
				}
			}()
			m := testManifest(bc.intervals)
			res := &core.Result{AvgTEGPowerPerServer: 4, PeakTEGPowerPerServer: 5, PRE: 0.14}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				rr := NewRunRecorder(rec, m, 0)
				for i := 0; i < bc.intervals; i++ {
					rr.ObserveInterval(i, intervalResult(4+float64(i%7)/8, 0))
				}
				rr.Done(res)
			}
			b.StopTimer()
			cancel()
			close(ch)
			<-drained
			if err := rec.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/run")
			b.ReportMetric(float64(w.lines)/float64(b.N), "records/run")
		})
	}
}
