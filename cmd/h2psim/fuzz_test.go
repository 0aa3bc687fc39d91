package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzResumeCheckpoint feeds arbitrary coordinator-file bytes through a
// resume of the committed reference trace: decoding the file, validating
// each stored checkpoint against the run (core.Checkpoint.ValidateFor) and
// the resumed runs themselves. Every input must either return an error or
// finish — never panic or hang. The seeds are the current format, the same
// state in the legacy "sharded" envelope, and the committed cache_keys
// fixture. The runs keep no series and the fixture seed is trimmed to a few
// cache keys, because Go's fuzz engine stalls on seeds of tens of KB.
func FuzzResumeCheckpoint(f *testing.F) {
	opt := refTraceOpts(2)
	opt.series = false
	current := haltedCheckpointFile(f, opt)
	f.Add(current)
	f.Add(shardedEnvelope(f, current))
	f.Add(trimmedFixture(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		opt := opt
		opt.checkpoint = filepath.Join(t.TempDir(), "cp.json")
		opt.resume = true
		if err := os.WriteFile(opt.checkpoint, data, 0o644); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- run(context.Background(), &bytes.Buffer{}, opt) }()
		select {
		case <-errc:
		case <-time.After(30 * time.Second):
			t.Fatal("resume did not return")
		}
	})
}

// haltedCheckpointFile halts the run opt describes at interval 12 and
// returns its coordinator file.
func haltedCheckpointFile(tb testing.TB, opt runOptions) []byte {
	tb.Helper()
	opt.checkpoint = filepath.Join(tb.TempDir(), "cp.json")
	opt.checkpointEvery = 6
	opt.haltAfter = 12
	if err := run(context.Background(), &bytes.Buffer{}, opt); !errors.Is(err, errHalted) {
		tb.Fatalf("halted run: err = %v, want errHalted", err)
	}
	data, err := os.ReadFile(opt.checkpoint)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// shardedEnvelope rewrites every in-progress entry of a coordinator file
// into the legacy "sharded" envelope: the checkpoint becomes the merged
// record of a one-shard layout.
func shardedEnvelope(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var file struct {
		Version int                                   `json:"version"`
		Entries map[string]map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		tb.Fatal(err)
	}
	for _, e := range file.Entries {
		cp, ok := e["checkpoint"]
		if !ok {
			continue
		}
		var sensors struct {
			Sensors json.RawMessage `json:"sensors"`
		}
		if err := json.Unmarshal(cp, &sensors); err != nil {
			tb.Fatal(err)
		}
		delete(e, "checkpoint")
		e["sharded"] = json.RawMessage(`{"version":1,"shards":1,"ranges":[{"lo":0,"hi":2}],"merged":` +
			string(cp) + `,"per_shard":[{"range":{"lo":0,"hi":2},"sensors":` + string(sensors.Sensors) + `}]}`)
	}
	out, err := json.Marshal(&file)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// trimmedFixture is the committed cache_keys fixture without its series and
// with each cache-key list cut to two keys.
func trimmedFixture(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "cache-keys.checkpoint.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var file any
	if err := json.Unmarshal(data, &file); err != nil {
		tb.Fatal(err)
	}
	var trim func(v any)
	trim = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "series")
			if keys, ok := v["cache_keys"].([]any); ok && len(keys) > 2 {
				v["cache_keys"] = keys[:2]
			}
			for _, c := range v {
				trim(c)
			}
		case []any:
			for _, c := range v {
				trim(c)
			}
		}
	}
	trim(file)
	out, err := json.Marshal(file)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestResumeRejectsBadEntries pins the coordinator-file checks the fuzz
// target relies on: each corrupt entry fails the resume with an error
// instead of a panic or a silently wrong report.
func TestResumeRejectsBadEntries(t *testing.T) {
	opt := refTraceOpts(2)
	current := string(haltedCheckpointFile(t, opt))
	done := string(readFileOrFail(t, func() string {
		full := opt
		full.checkpoint = filepath.Join(t.TempDir(), "done.json")
		runOK(t, full)
		return full.checkpoint
	}()))
	cases := map[string]string{
		"done without a result": `{"version":1,"entries":{"golden-ref/TEG_Original":{"done":true}}}`,
		"done for another scheme": strings.Replace(done,
			`"Scheme":"TEG_Original"`, `"Scheme":"TEG_LoadBalance"`, 1),
		"done with a short series": strings.Replace(done, `"Intervals":[{`, `"Intervals":[],"x":[{`, 1),
		"negative stale count":     strings.Replace(current, `"stale":0`, `"stale":-1`, 1),
		"unprimed sensor reading":  strings.Replace(current, `"last":0,`, `"last":41,`, 1),
	}
	for name, data := range cases {
		if data == current || data == done {
			t.Fatalf("%s: replacement did not apply", name)
		}
		o := opt
		o.checkpoint = filepath.Join(t.TempDir(), "cp.json")
		o.resume = true
		if err := os.WriteFile(o.checkpoint, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), &bytes.Buffer{}, o); err == nil {
			t.Errorf("%s: resume succeeded", name)
		}
	}
}

// readFileOrFail returns the contents of path.
func readFileOrFail(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
