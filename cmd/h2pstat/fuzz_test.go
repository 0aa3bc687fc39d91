package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"github.com/h2p-sim/h2p/internal/obs"
)

// FuzzDecodeSummaries feeds arbitrary /runs response bodies through the
// decoder and renders whatever it accepts through both the table and the
// -json path. None of it may panic, and an accepted body holds no null run.
//
// The seed corpus is a /runs body as a server encodes it and the null entry
// that used to crash the table renderer.
func FuzzDecodeSummaries(f *testing.F) {
	body, err := json.Marshal([]*obs.RunSummary{doneSummary()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add([]byte("[null]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sums, err := decodeSummaries(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range sums {
			if s == nil {
				t.Fatalf("decoder accepted a null run at entry %d", i)
			}
		}
		if err := writeSummaries(io.Discard, sums, false); err != nil {
			t.Fatal(err)
		}
		if err := writeSummaries(io.Discard, sums, true); err != nil {
			t.Fatal(err)
		}
	})
}
