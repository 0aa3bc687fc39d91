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
	"github.com/h2p-sim/h2p/internal/obs"
)

// journalOpt attaches a fresh journal recorder to opt, returning the path.
func journalOpt(t *testing.T, opt *runOptions, dir, name string, appendTo bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	rec, err := obs.Create(path, appendTo)
	if err != nil {
		t.Fatal(err)
	}
	opt.rec = rec
	opt.runID = "T1"
	return path
}

// TestObserverJournalStdoutBitIdentical is the journal-on/off equivalence
// gate: attaching the run recorder must not move a single output byte — for
// the default engine, the sharded pipeline, and a faulted run, across all
// three synthetic trace classes and both schemes.
func TestObserverJournalStdoutBitIdentical(t *testing.T) {
	plan, err := fault.ParsePlan("teg-degrade:0.1:0.5, pump-droop:0.05")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  func(*runOptions)
	}{
		{"default", func(*runOptions) {}},
		{"sharded", func(o *runOptions) { o.shards = 2 }},
		{"faulted", func(o *runOptions) { o.faults = plan; o.faultSeed = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runOptions{servers: 60, circ: 20, seed: 42, workers: 2}
			tc.mod(&base)

			var plain bytes.Buffer
			if err := run(context.Background(), &plain, base); err != nil {
				t.Fatal(err)
			}

			journaled := base
			path := journalOpt(t, &journaled, t.TempDir(), "run.journal", false)
			var withJournal bytes.Buffer
			if err := run(context.Background(), &withJournal, journaled); err != nil {
				t.Fatal(err)
			}
			if err := journaled.rec.Close(); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(plain.Bytes(), withJournal.Bytes()) {
				t.Errorf("journaling changed stdout:\n--- off ---\n%s\n--- on ---\n%s",
					plain.String(), withJournal.String())
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			records, err := obs.ReadJournal(f)
			if err != nil {
				t.Fatal(err)
			}
			sums := obs.Summarize(records)
			if len(sums) != 6 { // 3 synthetic classes x 2 schemes
				t.Fatalf("journal holds %d runs, want 6", len(sums))
			}
			for _, s := range sums {
				if s.Manifest == nil || s.Done == nil || s.Progress == nil {
					t.Errorf("run %s: manifest/progress/done incomplete: %+v", s.Run, s)
					continue
				}
				if s.Manifest.ConfigHash == "" {
					t.Errorf("run %s: manifest missing config hash", s.Run)
				}
				if s.Done.AvgTEGWattsPerServer <= 0 {
					t.Errorf("run %s: done avg = %v", s.Run, s.Done.AvgTEGWattsPerServer)
				}
				if tc.name == "sharded" {
					if s.Manifest.Config.Shards != 2 {
						t.Errorf("run %s: manifest shards = %d, want 2", s.Run, s.Manifest.Config.Shards)
					}
					if s.Progress.Shard == nil || s.Progress.Shard.Shards != 2 {
						t.Errorf("run %s: progress missing shard counters: %+v", s.Run, s.Progress.Shard)
					}
				}
				if tc.name == "faulted" && s.Manifest.Config.FaultPlan == "" {
					t.Errorf("run %s: manifest missing fault plan", s.Run)
				}
			}
		})
	}
}

// TestObserverJournalHaltResumeRoundTrip drives the full lifecycle the
// journal exists to witness: a sharded, faulted run halts at a checkpoint
// boundary, then a -resume invocation appends to the same journal file and
// finishes. One file ends up telling the whole story: manifests from both
// invocations, checkpoint and halt events, resume events, and a done record
// per run — and stdout stays byte-identical to an uninterrupted run.
func TestObserverJournalHaltResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plan, err := fault.ParsePlan("teg-degrade:0.2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	base := runOptions{servers: 60, circ: 20, seed: 42, workers: 2,
		shards: 2, faults: plan, faultSeed: 7}

	var fullOut bytes.Buffer
	if err := run(context.Background(), &fullOut, base); err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(dir, "cp.json")
	halted := base
	halted.checkpoint = cp
	halted.checkpointEvery = 20
	halted.haltAfter = 50
	path := journalOpt(t, &halted, dir, "run.journal", false)
	if err := run(context.Background(), io.Discard, halted); !errors.Is(err, errHalted) {
		t.Fatalf("halted run: err = %v, want errHalted", err)
	}
	if err := halted.rec.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.checkpoint = cp
	resumed.resume = true
	journalOpt(t, &resumed, dir, "run.journal", true) // append to the same file
	var resumeOut bytes.Buffer
	if err := run(context.Background(), &resumeOut, resumed); err != nil {
		t.Fatal(err)
	}
	if err := resumed.rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullOut.Bytes(), resumeOut.Bytes()) {
		t.Error("resumed stdout differs from uninterrupted run with journal attached")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := obs.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	sums := obs.Summarize(records)
	if len(sums) != 6 {
		t.Fatalf("journal holds %d runs, want 6", len(sums))
	}
	for _, s := range sums {
		if s.Done == nil {
			t.Errorf("run %s: no done record after resume", s.Run)
			continue
		}
		if s.Halts < 1 {
			t.Errorf("run %s: %d halt events, want >= 1", s.Run, s.Halts)
		}
		if s.Resumes < 1 {
			t.Errorf("run %s: %d resume events, want >= 1", s.Run, s.Resumes)
		}
		if s.Checkpoints < 1 {
			t.Errorf("run %s: %d checkpoint events, want >= 1", s.Run, s.Checkpoints)
		}
		// Two invocations each wrote a manifest; the fold keeps the latest,
		// and the record count reflects both lives of the run.
		manifests := 0
		for _, r := range records {
			if r.Run == s.Run && r.Type == "manifest" {
				manifests++
			}
		}
		if manifests != 2 {
			t.Errorf("run %s: %d manifests, want 2 (initial + resume)", s.Run, manifests)
		}
	}
}

// TestJournalTornTailResume drives a crash that tore the journal's last
// record: the halted run's journal is cut mid-record, a -resume invocation
// appends to it, and the file reads back whole — the torn bytes are gone,
// every run has its done record, and stdout matches an uninterrupted run.
func TestJournalTornTailResume(t *testing.T) {
	dir := t.TempDir()
	base := runOptions{servers: 60, circ: 20, seed: 42, workers: 2}
	fullOut := runOK(t, base)

	cp := filepath.Join(dir, "cp.json")
	halted := base
	halted.checkpoint = cp
	halted.checkpointEvery = 20
	halted.haltAfter = 50
	path := journalOpt(t, &halted, dir, "run.journal", false)
	if err := run(context.Background(), io.Discard, halted); !errors.Is(err, errHalted) {
		t.Fatalf("halted run: err = %v, want errHalted", err)
	}
	if err := halted.rec.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1
	torn := whole[:last+(len(whole)-last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.checkpoint = cp
	resumed.resume = true
	journalOpt(t, &resumed, dir, "run.journal", true)
	resumeOut := runOK(t, resumed)
	if err := resumed.rec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullOut, resumeOut) {
		t.Error("resumed stdout differs from uninterrupted run")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, whole[:last]) {
		t.Error("resume rewrote the journal's complete records")
	}
	// A torn record left mid-file would be a terminated line that does not
	// parse, which ReadJournal rejects.
	records, err := obs.ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("journal after torn-tail resume: %v", err)
	}
	sums := obs.Summarize(records)
	if len(sums) != 6 {
		t.Fatalf("journal holds %d runs, want 6", len(sums))
	}
	for _, s := range sums {
		if s.Done == nil {
			t.Errorf("run %s: no done record after resume", s.Run)
		}
	}
}
