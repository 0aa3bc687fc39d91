package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// envOptions is the shared environment-on CLI configuration the tests run.
func envOptions() runOptions {
	src, err := buildEnv("seasonal", 7)
	if err != nil {
		panic(err)
	}
	return runOptions{
		servers: 40, circ: 20, seed: 42,
		env: src, envSeed: 7, reuse: true, storageWh: 100,
	}
}

func TestRunEnvSummaryTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, envOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Facility environment — seasonal (seed 7)",
		"reuse_kwh", "sto_in_kwh", "heat_intv",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunEnvDefaultOmitsTable pins the conditional: a default run prints no
// environment table, keeping stdout byte-identical to pre-environment builds
// (the golden test pins the exact bytes; this pins the reason).
func TestRunEnvDefaultOmitsTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, runOptions{servers: 40, circ: 20, seed: 42}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Facility environment") {
		t.Error("default run printed the environment table")
	}
}

// TestStreamEnvOutputMatchesInMemory pins environment-on output across
// shard layouts: one worker and three shards must print the same bytes,
// environment table included.
func TestStreamEnvOutputMatchesInMemory(t *testing.T) {
	opt := envOptions()
	opt.workers = 1
	var one bytes.Buffer
	if err := run(context.Background(), &one, opt); err != nil {
		t.Fatal(err)
	}
	opt.shards = 3
	var sharded bytes.Buffer
	if err := run(context.Background(), &sharded, opt); err != nil {
		t.Fatal(err)
	}
	if one.String() != sharded.String() {
		t.Error("three-shard environment run output differs from the one-worker run")
	}
}

func TestBuildEnv(t *testing.T) {
	if src, err := buildEnv("", 1); err != nil || src != nil {
		t.Errorf("default env = %v, %v; want nil, nil", src, err)
	}
	if src, err := buildEnv("constant", 1); err != nil || src != nil {
		t.Errorf("constant env = %v, %v; want nil, nil", src, err)
	}
	src, err := buildEnv("seasonal", 9)
	if err != nil || src == nil || src.Name() != "seasonal" {
		t.Errorf("seasonal env = %v, %v", src, err)
	}
	if _, err := buildEnv("seasonal", -1); err == nil {
		t.Error("negative seasonal seed accepted")
	}
	if _, err := buildEnv(filepath.Join(t.TempDir(), "missing.json"), 1); err == nil {
		t.Error("missing profile path accepted")
	}

	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, []byte(
		`{"name":"test-site","samples":[{"wet_bulb_c":5,"cold_side_c":8,"heat_demand":0.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	prof, err := buildEnv(path, 1)
	if err != nil || prof == nil || prof.Name() != "profile" {
		t.Errorf("profile env = %v, %v", prof, err)
	}
}
