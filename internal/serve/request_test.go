package serve

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/sched"
)

func parse(t *testing.T, body string) (*RunRequest, error) {
	t.Helper()
	return ParseRunRequest(strings.NewReader(body), 0)
}

func TestParseRunRequestCanonicalizes(t *testing.T) {
	req, err := parse(t, `{"trace":{"class":"Drastic","servers":50,"seed":7},"scheme":"lb","shards":2}`)
	if err != nil {
		t.Fatal(err)
	}
	if req.Scheme != string(sched.LoadBalance) {
		t.Errorf("scheme canonicalized to %q, want %q", req.Scheme, sched.LoadBalance)
	}
	if req.Trace.Class != "drastic" {
		t.Errorf("class canonicalized to %q", req.Trace.Class)
	}
	if req.EngineConfig().ServersPerCirculation != 25 {
		t.Errorf("default servers/circulation = %d, want the paper's 25", req.EngineConfig().ServersPerCirculation)
	}
}

func TestParseRunRequestRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed", `{"trace":`, "request JSON"},
		{"unknown field", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","bogus":1}`, "unknown field"},
		{"trailing data", `{"trace":{"class":"drastic","servers":10},"scheme":"lb"} {}`, "trailing data"},
		{"missing scheme", `{"trace":{"class":"drastic","servers":10}}`, "scheme is required"},
		{"unknown scheme", `{"trace":{"class":"drastic","servers":10},"scheme":"fifo"}`, "unknown scheme"},
		{"unknown class", `{"trace":{"class":"bursty","servers":10},"scheme":"lb"}`, "unknown trace class"},
		{"no servers", `{"trace":{"class":"drastic"},"scheme":"lb"}`, "servers must be positive"},
		{"class and file", `{"trace":{"class":"drastic","servers":10,"file":"a.csv"},"scheme":"lb"}`, "not both"},
		{"file escape", `{"trace":{"file":"../secrets.csv"},"scheme":"lb"}`, "escapes"},
		{"negative workers", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","workers":-1}`, "workers"},
		{"huge shards", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","shards":99999}`, "shards"},
		{"quantum range", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","quantum":1.5}`, "quantum"},
		{"non-finite quantum", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","quantum":1e999}`, "request JSON"},
		{"fault plan path", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","fault_plan":"plans/evil.json"}`, "file path"},
		{"fault plan json suffix", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","fault_plan":"evil.json"}`, "file path"},
		{"negative fault seed", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","fault_seed":-3}`, "fault_seed"},
		{"env profile kind", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","environment":{"kind":"profile"}}`, "CLI-only"},
		{"env unknown kind", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","environment":{"kind":"mars"}}`, "environment kind"},
		{"env negative seed", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","environment":{"kind":"seasonal","seed":-1}}`, "environment seed"},
		{"env negative storage", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","environment":{"storage_wh":-5}}`, "storage_wh"},
		{"env unknown field", `{"trace":{"class":"drastic","servers":10},"scheme":"lb","environment":{"profile":"/etc/passwd"}}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.body)
			if err == nil {
				t.Fatalf("parse accepted %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseRunRequestBodyBound(t *testing.T) {
	huge := `{"trace":{"class":"drastic","servers":10},"scheme":"lb","fault_plan":"` +
		strings.Repeat("x", 4096) + `"}`
	_, err := ParseRunRequest(strings.NewReader(huge), 256)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("oversize body error = %v, want ErrBodyTooLarge", err)
	}
}

func TestSweepExpand(t *testing.T) {
	body := `{"base":{"trace":{"class":"drastic","servers":50},"scheme":"original"},
	          "classes":["drastic","common"],"schemes":["original","lb"],"seeds":[1,2,3]}`
	sweep, err := ParseSweepRequest(strings.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 12 {
		t.Fatalf("expanded %d runs, want 2*2*3 = 12", len(runs))
	}
	// classes x schemes x seeds order, each canonicalized.
	if runs[0].Trace.Class != "drastic" || runs[0].Scheme != string(sched.Original) || runs[0].Trace.Seed != 1 {
		t.Errorf("first run = %+v", runs[0])
	}
	last := runs[len(runs)-1]
	if last.Trace.Class != "common" || last.Scheme != string(sched.LoadBalance) || last.Trace.Seed != 3 {
		t.Errorf("last run = %+v", last)
	}
}

func TestSweepCap(t *testing.T) {
	seeds := make([]string, 5000)
	for i := range seeds {
		seeds[i] = "1"
	}
	body := `{"base":{"trace":{"class":"drastic","servers":50},"scheme":"lb"},"seeds":[` +
		strings.Join(seeds, ",") + `]}`
	_, err := ParseSweepRequest(strings.NewReader(body), 1<<20)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized sweep error = %v", err)
	}
}

func TestManifestHashStable(t *testing.T) {
	req, err := parse(t, `{"trace":{"class":"common","servers":50,"seed":3},"scheme":"original","shards":2}`)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := req.Trace.Meta("")
	if err != nil {
		t.Fatal(err)
	}
	m1 := req.Manifest("r000001", meta, envForTest())
	m2 := req.Manifest("r000001", meta, envForTest())
	if m1.ConfigHash == "" || m1.ConfigHash != m2.ConfigHash {
		t.Errorf("manifest hash unstable: %q vs %q", m1.ConfigHash, m2.ConfigHash)
	}
	if !m1.Config.Streaming || m1.Config.Shards != 2 {
		t.Errorf("manifest config = %+v", m1.Config)
	}
}

// FuzzParseRunRequest fuzzes the API's single request decoder: whatever the
// bytes, it must not panic, must not allocate past the bound, and anything it
// accepts must survive re-validation (the parse is a fixpoint).
func FuzzParseRunRequest(f *testing.F) {
	seeds := []string{
		`{"trace":{"class":"drastic","servers":50,"seed":7},"scheme":"loadbalance"}`,
		`{"trace":{"class":"irregular","servers":100,"intervals":40},"scheme":"original","shards":4,"quantum":0.05}`,
		`{"trace":{"file":"racks/a.csv"},"scheme":"lb","fault_plan":"teg-degrade:0.1:0.5","fault_seed":9,"keep_series":true}`,
		`{"trace":{"class":"common","servers":1},"scheme":"TEG_Original","workers":2}`,
		`{"scheme":"lb"}`,
		`{"trace":{"class":"drastic","servers":-4},"scheme":"lb"}`,
		`{"trace":{"class":"drastic","servers":10},"scheme":"lb","quantum":1e999}`,
		`{"trace":{"class":"drastic","servers":10},"scheme":"lb"} trailing`,
		`[{"not":"an object"}]`,
		`nul`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRunRequest(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		// Accepted requests are canonical: validating again must succeed and
		// the engine config must be constructible.
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted request failed re-validation: %v\ninput: %q", err, data)
		}
		cfg := req.EngineConfig()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted request produced invalid engine config: %v\ninput: %q", err, data)
		}
	})
}

// TestEnvironmentBlock pins the environment block's wiring: a seasonal
// request shapes the engine config, a constant block hashes identically to
// no block at all, and a seasonal block moves the hash.
func TestEnvironmentBlock(t *testing.T) {
	req, err := parse(t, `{"trace":{"class":"drastic","servers":10},"scheme":"lb",
		"environment":{"kind":"seasonal","seed":9,"reuse":true,"storage_wh":100}}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := req.EngineConfig()
	if cfg.Env == nil || cfg.Env.Name() != "seasonal" {
		t.Fatalf("seasonal request built env %v", cfg.Env)
	}
	if cfg.Reuse == nil {
		t.Fatal("reuse sink not wired")
	}
	if cfg.Storage == nil {
		t.Fatal("storage spec not wired")
	}
	if got := cfg.Storage.SC.CapacityWh + cfg.Storage.Battery.CapacityWh; math.Abs(got-100) > 1e-9 {
		t.Fatalf("storage capacity = %g Wh, want 100", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	meta, err := req.Trace.Meta("")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := parse(t, `{"trace":{"class":"drastic","servers":10},"scheme":"lb"}`)
	if err != nil {
		t.Fatal(err)
	}
	constant, err := parse(t, `{"trace":{"class":"drastic","servers":10},"scheme":"lb","environment":{"kind":"constant"}}`)
	if err != nil {
		t.Fatal(err)
	}
	bareHash := bare.Manifest("r", meta, envForTest()).ConfigHash
	constHash := constant.Manifest("r", meta, envForTest()).ConfigHash
	seasonalHash := req.Manifest("r", meta, envForTest()).ConfigHash
	if bareHash != constHash {
		t.Errorf("constant environment block moved the config hash: %s vs %s", constHash, bareHash)
	}
	if bareHash == seasonalHash {
		t.Error("seasonal environment block did not move the config hash")
	}
}

// TraceSpec.Meta derives a generator spec's shape from its configuration
// without seeding a generator; it must equal the opened source's Meta for
// every class, on the canonical and a trimmed horizon, and fail with the
// source's error text on a shape the generator rejects.
func TestGeneratorMetaMatchesSource(t *testing.T) {
	for _, class := range []string{"drastic", "irregular", "common"} {
		for _, intervals := range []int{0, 24} {
			for _, servers := range []int{1, 60, 0} {
				spec := TraceSpec{Class: class, Servers: servers, Seed: 5, Intervals: intervals}
				got, gotErr := spec.Meta("")
				src, wantErr := spec.Open("")
				if servers == 0 {
					if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("%+v: Meta err %v, Open err %v", spec, gotErr, wantErr)
					}
					continue
				}
				if gotErr != nil || wantErr != nil {
					t.Fatalf("%+v: Meta err %v, Open err %v", spec, gotErr, wantErr)
				}
				if want := src.Meta(); got != want {
					t.Fatalf("%+v: Meta %+v, source Meta %+v", spec, got, want)
				}
			}
		}
	}
}
