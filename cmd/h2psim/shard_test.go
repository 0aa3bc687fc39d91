package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/h2p-sim/h2p/internal/fault"
)

// TestShardedOutputMatchesInMemory is the CLI-level equivalence pin for
// -shards: every shard count — below, at and above the circulation count —
// must print byte-identical tables (including the full -series dump) to the
// one-worker run.
func TestShardedOutputMatchesInMemory(t *testing.T) {
	base := runOptions{servers: 60, circ: 20, seed: 42, workers: 1, series: true}
	want := runOK(t, base)
	for _, shards := range []int{1, 2, 3, 16} {
		sharded := base
		sharded.shards = shards
		if got := runOK(t, sharded); !bytes.Equal(want, got) {
			t.Errorf("-shards %d output differs from the one-worker output:\n--- one worker ---\n%s\n--- sharded ---\n%s",
				shards, want, got)
		}
	}
}

// TestShardedHaltResumeByteIdentical automates the kill/resume flow under
// -shards: a sharded run halted at a checkpoint boundary prints nothing, and
// the resumed sharded run's stdout is byte-identical to an uninterrupted run.
func TestShardedHaltResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	base := runOptions{servers: 60, circ: 20, seed: 42, series: true, shards: 3}
	fullOut := runOK(t, base)

	cp := filepath.Join(dir, "cp.json")
	halted := base
	halted.checkpoint = cp
	halted.checkpointEvery = 20
	halted.haltAfter = 50
	var haltOut bytes.Buffer
	if err := run(context.Background(), &haltOut, halted); !errors.Is(err, errHalted) {
		t.Fatalf("halted sharded run: err = %v, want errHalted", err)
	}
	if haltOut.Len() != 0 {
		t.Fatalf("halted sharded run wrote %d bytes to stdout; a partial report must never print", haltOut.Len())
	}

	resumed := base
	resumed.checkpoint = cp
	resumed.resume = true
	if got := runOK(t, resumed); !bytes.Equal(fullOut, got) {
		t.Errorf("resumed sharded stdout differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s",
			fullOut, got)
	}
}

// TestShardedCheckpointCrossResume pins that one checkpoint format resumes
// across layouts: a faulted run with a storage buffer, halted under
// -workers 2 or -shards 3, resumes under one, two and three workers with
// stdout byte-identical to the uninterrupted run, and the file holds engine
// "checkpoint" entries only.
func TestShardedCheckpointCrossResume(t *testing.T) {
	plan, err := fault.ParsePlan("sensor-stuck:0.1")
	if err != nil {
		t.Fatal(err)
	}
	base := runOptions{servers: 60, circ: 10, seed: 42, series: true,
		faults: plan, faultSeed: 3, storageWh: 500}
	want := runOK(t, base)

	for _, layout := range []struct {
		name            string
		workers, shards int
	}{{"-workers 2", 2, 0}, {"-shards 3", 0, 3}} {
		cp := filepath.Join(t.TempDir(), "cp.json")
		halted := base
		halted.workers, halted.shards = layout.workers, layout.shards
		halted.checkpoint = cp
		halted.checkpointEvery = 20
		halted.haltAfter = 60
		if err := run(context.Background(), io.Discard, halted); !errors.Is(err, errHalted) {
			t.Fatalf("%s halted run: err = %v, want errHalted", layout.name, err)
		}
		blob, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(blob, []byte(`"checkpoint"`)) || bytes.Contains(blob, []byte(`"sharded"`)) {
			t.Fatalf("%s: checkpoint file must hold engine checkpoint entries only", layout.name)
		}
		for _, workers := range []int{1, 2, 3} {
			if err := os.WriteFile(cp, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := base
			resumed.workers = workers
			resumed.checkpoint = cp
			resumed.resume = true
			if got := runOK(t, resumed); !bytes.Equal(want, got) {
				t.Errorf("checkpointed under %s, resumed under -workers %d: stdout differs from the uninterrupted run",
					layout.name, workers)
			}
		}
	}
}
