package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// month-warm workload re-executes itself as its program side.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the metrics and
// workloads the command reports.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, d := range metricDefs {
		if d.kind != wall {
			want = append(want, d.kind+" "+d.name+" "+d.unit+" "+d.better)
		}
	}
	for _, m := range bf.EndToEnd {
		got = append(got, gated+" "+m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range bf.PerLayer {
		got = append(got, layer+" "+m.Name+" "+m.Unit+" "+m.Better)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json metrics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
}

// TestSmoke runs every workload at the tiny scale, untraced and traced, and
// checks that each prints every metric of its kind with its unit, that the
// result line is well formed, and that every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the program binaries and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/h2psim", "./cmd/h2pserved", "./cmd/h2pbench")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the program: %v\n%s", err, out)
	}
	work := t.TempDir()
	for _, name := range workloadNames() {
		for _, trc := range []string{"0", "1"} {
			t.Run(name+"/trace"+trc, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", name, "-seed", "3", "-seconds", "2", "-trace", trc,
					"-scale", "tiny", "-bin", bin, "-work", work}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var r report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("result %+v\nstderr:\n%s", r, stderr.String())
				}
				kind := gated
				if trc == "1" {
					kind = layer
				}
				for _, d := range metricDefs {
					if (d.kind == layer) != (kind == layer) {
						continue
					}
					printed := false
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
							printed = true
						}
					}
					if !printed {
						t.Errorf("metric %s (%s) not printed", d.name, d.unit)
					}
					m, ok := r.Metrics[d.name]
					switch {
					case d.kind == kind && (!ok || m.Unit != d.unit):
						t.Errorf("result line lacks %s in %s", d.name, d.unit)
					case d.kind != kind && ok:
						t.Errorf("result line holds %s, which is not a %s metric", d.name, kind)
					}
				}
				if trc == "1" && !strings.Contains(stdout.String(), "traced wall clock") {
					t.Error("no stage table printed")
				}
				if !strings.Contains(stdout.String(), "failed_frac 0 ") {
					t.Error("failed_frac not printed as 0")
				}
				if !strings.Contains(stdout.String(), `"h2p_bench_env"`) {
					t.Error("result not stamped with the environment header")
				}
			})
		}
	}
}
