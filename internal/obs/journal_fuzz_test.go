package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
)

// FuzzReadJournal feeds arbitrary bytes to the journal reader that h2pstat
// points at any file: every input must come back as records or an error,
// never a panic. Accepted records must carry a type and a readable schema
// version, survive Summarize, and read back identically once re-encoded.
// The line bound is a fuzz argument so oversized lines stay small inputs.
func FuzzReadJournal(f *testing.F) {
	// A real journal, kept short: the minimizer's cost grows with the
	// square of a seed's length, and a multi-KB seed stalls the run.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.now = (&fakeClock{t: time.UnixMilli(1000), step: time.Millisecond}).now
	rr := NewRunRecorder(rec, Manifest{RunID: "r", Trace: "t", Servers: 4, Intervals: 2,
		Config: RunConfig{Servers: 4, ServersPerCirculation: 2, Scheme: "o"}}, 2)
	rr.AttachShardStats(func() core.ShardStats {
		return core.ShardStats{Shards: 2, StepSeconds: []float64{1, 2}}
	})
	rr.ObserveInterval(0, intervalResult(4, 1))
	rr.ObserveInterval(1, intervalResult(4, 0))
	rr.ObserveCheckpoint(2)
	rr.Done(&core.Result{AvgTEGPowerPerServer: 4})
	if err := rec.Close(); err != nil {
		f.Fatal(err)
	}
	journal := buf.Bytes()
	f.Add(journal, uint16(4096))
	f.Add(append(append([]byte(nil), journal...), `{"type":"do`...), uint16(4096)) // torn tail
	f.Add([]byte(`{"type":"event","run":"x","t_ms":1,"detail":"`+strings.Repeat("x", 200)+`"}`+"\n"), uint16(128))
	f.Add([]byte("\n\n"+`{"type":"future-thing","run":"x","t_ms":1}`), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, maxLine uint16) {
		records, err := readJournal(bytes.NewReader(data), 1+int(maxLine))
		if err != nil {
			if records != nil {
				t.Fatalf("error %v came with %d records", err, len(records))
			}
			return
		}
		for i, r := range records {
			if r.Type == "" || r.V > JournalVersion {
				t.Fatalf("record %d accepted with type %q, v%d", i, r.Type, r.V)
			}
		}
		Summarize(records)
		var again bytes.Buffer
		for i := range records {
			line, err := json.Marshal(&records[i])
			if err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			again.Write(append(line, '\n'))
		}
		back, err := readJournal(&again, maxJournalLine)
		if err != nil {
			t.Fatalf("re-encoded records do not read back: %v", err)
		}
		if !reflect.DeepEqual(back, records) {
			t.Fatalf("re-encoded records read back as\n%+v\nwant\n%+v", back, records)
		}
	})
}
