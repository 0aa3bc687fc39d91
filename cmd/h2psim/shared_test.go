package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
)

// refTraceOpts runs the committed reference trace with its series, the way
// testdata/cache-keys.checkpoint.json was written (two circulations, so
// -shards 2 puts one on each shard).
func refTraceOpts(shards int) runOptions {
	return runOptions{circ: 5, workers: 1, traceFile: filepath.Join("testdata", "ref.trace.csv"),
		series: true, shards: shards}
}

// runOK runs opt and returns its stdout, failing the test on any error.
func runOK(t *testing.T, opt runOptions) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), &out, opt); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestResumeCheckpointWithCacheKeys pins backward compatibility with
// coordinator files that still list decision-cache keys and hold their
// in-progress runs as "sharded" entries: the committed file was written by
// an earlier checkpoint format (`h2psim -trace testdata/ref.trace.csv -circ
// 5 -workers 1 -shards 2 -series -checkpoint f -checkpoint-every 6
// -halt-after 12`), and it must resume through its merged records, under two
// shards and under all CPUs, to a report byte-identical to an uninterrupted
// run's.
func TestResumeCheckpointWithCacheKeys(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "cache-keys.checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(`"cache_keys"`)) {
		t.Fatal("fixture carries no cache_keys; it no longer tests the old format")
	}
	want := runOK(t, refTraceOpts(2))
	for _, shards := range []int{2, 0} {
		cp := filepath.Join(t.TempDir(), "cp.json")
		if err := os.WriteFile(cp, old, 0o644); err != nil {
			t.Fatal(err)
		}
		opt := refTraceOpts(shards)
		opt.checkpoint, opt.resume = cp, true
		if got := runOK(t, opt); !bytes.Equal(got, want) {
			t.Errorf("-shards %d resume of the old-format file differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
				shards, want, got)
		}
	}
}

// TestResumeMixedProgress pins resume when the schemes of a trace stopped at
// different points: one finished and the other mid-run (the finished scheme
// takes no branch of the shared decode), or both mid-run at different
// intervals (the later one replays further through its branch). The report
// is byte-identical to an uninterrupted run's, sharded and unsharded.
func TestResumeMixedProgress(t *testing.T) {
	for _, shards := range []int{0, 2} {
		dir := t.TempDir()
		base := runOptions{servers: 60, circ: 20, seed: 42, series: true, shards: shards}

		full := base
		full.checkpoint = filepath.Join(dir, "full.json")
		want := runOK(t, full)
		states := map[string]checkpointFile{"done": readCheckpointFile(t, full.checkpoint)}
		for _, halt := range []int{30, 50} {
			halted := base
			halted.checkpoint = filepath.Join(dir, fmt.Sprintf("halt%d.json", halt))
			halted.checkpointEvery = 20
			halted.haltAfter = halt
			if err := run(context.Background(), &bytes.Buffer{}, halted); !errors.Is(err, errHalted) {
				t.Fatalf("-shards %d halted run: err = %v, want errHalted", shards, err)
			}
			states[fmt.Sprint(halt)] = readCheckpointFile(t, halted.checkpoint)
		}

		for _, mix := range [][2]string{{"done", "50"}, {"50", "done"}, {"50", "30"}, {"30", "50"}} {
			mixed := checkpointFile{Version: core.CheckpointVersion, Entries: map[string]*checkpointEntry{}}
			for si, scheme := range streamSchemes {
				for key, e := range states[mix[si]].Entries {
					if strings.HasSuffix(key, "/"+string(scheme)) {
						mixed.Entries[key] = e
					}
				}
			}
			if len(mixed.Entries) != 3*len(streamSchemes) {
				t.Fatalf("mixed file holds %d entries, want %d", len(mixed.Entries), 3*len(streamSchemes))
			}
			data, err := json.Marshal(&mixed)
			if err != nil {
				t.Fatal(err)
			}
			resumed := base
			resumed.checkpoint = filepath.Join(dir, "mixed.json")
			resumed.resume = true
			if err := os.WriteFile(resumed.checkpoint, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := runOK(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("-shards %d resume from %s/%s differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s",
					shards, mix[0], mix[1], want, got)
			}
		}
	}
}

// readCheckpointFile decodes a coordinator file and checks it holds one
// entry per trace x scheme.
func readCheckpointFile(t *testing.T, path string) checkpointFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 3*len(streamSchemes) {
		t.Fatalf("%s holds %d entries, want %d", path, len(f.Entries), 3*len(streamSchemes))
	}
	return f
}

// TestBadValueFailsEveryRun pins the shared decode's error path: a value out
// of range at interval 7 fails the invocation with the decoder's error text,
// sharded and unsharded, and neither scheme run stalls waiting on its
// failed sibling.
func TestBadValueFailsEveryRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ref.trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	fields := strings.Split(lines[5], ",") // server 3
	fields[1+7] = "1.5"
	lines[5] = strings.Join(fields, ",")
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	const cause = "source at interval 7: trace: server 3 interval 7 utilization 1.5 outside [0,1]"
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{0, "core: " + cause},
		{2, "core: " + cause},
	} {
		opt := refTraceOpts(tc.shards)
		opt.traceFile = bad
		opt.checkpoint = filepath.Join(t.TempDir(), "cp.json")
		opt.checkpointEvery = 3
		errc := make(chan error, 1)
		go func() { errc <- run(context.Background(), &bytes.Buffer{}, opt) }()
		select {
		case err := <-errc:
			if err == nil || err.Error() != tc.want {
				t.Errorf("-shards %d: error %v, want %q", tc.shards, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("-shards %d: run with a bad value did not return", tc.shards)
		}
	}
}
