package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests freeze the exact CSV output of the experiments. Any model
// or formatting drift fails loudly; intentional recalibration updates the
// files with
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenIDs are the experiments whose output is a pure function of the
// calibrated constants (no EvalParams dependence).
var goldenIDs = []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig13",
	"abl-flow", "abl-store", "abl-tec", "aging", "dc-bus", "coolant", "sens-price"}

// traceGoldenIDs are the trace-driven experiments: they run the engine over
// generated traces, so their goldens are pinned at goldenTraceParams — small
// enough that each runs in well under a second.
var traceGoldenIDs = []string{"fig14", "fig15", "tab1", "faults", "skus",
	"seasonal", "sens-circ", "sens-cold", "stability", "qs-valid"}

var goldenTraceParams = EvalParams{Servers: 60, Seed: 42}

func TestGoldenExperiments(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) { checkGolden(t, id, EvalParams{}) })
	}
}

func TestGoldenTraceExperiments(t *testing.T) {
	for _, id := range traceGoldenIDs {
		t.Run(id, func(t *testing.T) { checkGolden(t, id, goldenTraceParams) })
	}
}

// checkGolden runs experiment id at p and compares its CSV with
// testdata/<id>.golden.csv (or rewrites the file under -update).
func checkGolden(t *testing.T, id string, p EvalParams) {
	t.Helper()
	tab, err := Run(id, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", id+".golden.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s output drifted from golden file; run with -update if the change is intentional", id)
	}
}
