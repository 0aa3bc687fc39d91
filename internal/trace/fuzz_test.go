package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV runs FuzzCSVRoundTrip's property on hostile seeds. make
// fuzz-check fuzzes FuzzCSVRoundTrip only, whose corpus holds these seeds
// too.
func FuzzReadCSV(f *testing.F) {
	for _, s := range readCSVSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(requireCSVRoundTrip)
}

// readCSVSeeds are FuzzReadCSV's seeds: a generated trace, a headerless
// matrix, and inputs the reader must refuse.
func readCSVSeeds(f *testing.F) []string {
	tr, err := Generate(CommonConfig(3), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	return []string{
		buf.String(),
		"0,0.1,0.2\n1,0.3,0.4\n",
		"#h2p-trace,x,common,5m0s\nserver,t0\n0,0.5\n",
		"",
		"#h2p-trace,broken\n",
		"0,abc\n",
	}
}

// FuzzCSVRoundTrip hardens the wide-CSV codec: arbitrary input must either
// be refused by ReadCSV or parse into a valid trace that survives WriteCSV
// -> ReadCSV with every field bit-identical — name, class, interval, and
// the full utilization matrix.
func FuzzCSVRoundTrip(f *testing.F) {
	tr, err := Generate(DrasticConfig(2), 7)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		buf.String(),
		"#h2p-trace,tiny,common,5m0s\nserver,t0,t1\n0,0.25,1\n1,0,0.5\n",
		// Quoted: the reader refuses it, and the writer never quotes.
		"#h2p-trace,\"comma,name\",stable,1h0m0s\nserver,t0\n0,0.125\n",
		"0,1e-300\n",
		// Names an encoding/csv writer would quote, or that hold a tab or
		// a CR.
		"#h2p-trace, lead,common,5m0s\nserver,t0\n0,0.5\n",
		"#h2p-trace,\\.,common,5m0s\nserver,t0\n0,0.5\n",
		"#h2p-trace,tab\tin,common,5m0s\nserver,t0\n0,0.5\n",
		"#h2p-trace,cr\rin,common,5m0s\nserver,t0\n0,0.5\n",
	}
	for _, s := range append(seeds, readCSVSeeds(f)...) {
		f.Add(s)
	}
	f.Fuzz(requireCSVRoundTrip)
}

// requireCSVRoundTrip is FuzzCSVRoundTrip's property on one input.
func requireCSVRoundTrip(t *testing.T, raw string) {
	got, err := ReadCSV(strings.NewReader(raw))
	if err != nil {
		return
	}
	if vErr := got.Validate(); vErr != nil {
		t.Fatalf("accepted trace fails validation: %v", vErr)
	}
	var out bytes.Buffer
	if wErr := got.WriteCSV(&out); wErr != nil {
		// The reader splits the meta row at commas, refuses quotes and
		// ends lines at LF, so a CR is the one byte the writer refuses
		// that an accepted name or class can hold.
		if strings.ContainsRune(got.Name+string(got.Class), '\r') {
			return
		}
		t.Fatalf("accepted trace fails to serialize: %v", wErr)
	}
	back, rErr := ReadCSV(&out)
	if rErr != nil {
		t.Fatalf("round-trip failed: %v", rErr)
	}
	if back.Name != got.Name || back.Class != got.Class || back.Interval != got.Interval {
		t.Fatalf("round-trip changed metadata: %q/%v/%v -> %q/%v/%v",
			got.Name, got.Class, got.Interval, back.Name, back.Class, back.Interval)
	}
	if back.Servers() != got.Servers() || back.Intervals() != got.Intervals() {
		t.Fatal("round-trip changed shape")
	}
	for s := range got.U {
		for i := range got.U[s] {
			if back.U[s][i] != got.U[s][i] {
				t.Fatalf("round-trip changed U[%d][%d]: %v -> %v", s, i, got.U[s][i], back.U[s][i])
			}
		}
	}
}
