package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParsePlanEmpty(t *testing.T) {
	p, err := ParsePlan("   ")
	if err != nil || p != nil {
		t.Fatalf("ParsePlan(blank) = %v, %v; want nil, nil", p, err)
	}
}

func TestParsePlanDSL(t *testing.T) {
	p, err := ParsePlan("teg-degrade:0.1:0.5, pump-droop:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Specs) != 2 {
		t.Fatalf("got %d specs, want 2", len(p.Specs))
	}
	if p.Specs[0].Kind != TEGDegrade || p.Specs[0].Rate != 0.1 || p.Specs[0].Severity != 0.5 {
		t.Errorf("spec 0 = %+v", p.Specs[0])
	}
	if p.Specs[1].Kind != PumpDroop || p.Specs[1].Rate != 0.05 {
		t.Errorf("spec 1 = %+v", p.Specs[1])
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"teg-degrade",          // no rate
		"teg-degrade:x",        // bad rate
		"teg-degrade:0.1:y",    // bad severity
		"teg-degrade:0.1:1:2",  // too many fields
		"melted:0.1",           // unknown kind
		"teg-degrade:1.5",      // rate out of range
		",",                    // nothing
		"/no/such/file.json:a", // not a file, not DSL either
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

func TestParsePlanJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	body := `{
		"specs": [
			{"kind": "sensor-stuck", "windows": [{"from": 2, "to": 5, "unit": -1}], "max_stale": 4},
			{"kind": "teg-open", "rate": 0.02}
		],
		"retry": {"max_attempts": 5}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Specs) != 2 || p.Retry.MaxAttempts != 5 {
		t.Fatalf("plan = %+v", p)
	}
	w := p.Specs[0].Windows[0]
	if w.From != 2 || w.To != 5 || w.Unit != -1 {
		t.Errorf("window = %+v", w)
	}
	if p.Specs[0].MaxStale != 4 {
		t.Errorf("max_stale = %d", p.Specs[0].MaxStale)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"specs":[{"kind":"teg-open"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePlan(bad); err == nil {
		t.Error("invalid JSON plan accepted")
	}
}

// TestPlanString pins the rendering the run manifest hashes: plans that run
// different arithmetic render differently, and a DSL plan renders as its own
// DSL text.
func TestPlanString(t *testing.T) {
	var p *Plan
	if got := p.String(); got != "none" {
		t.Errorf("nil String = %q", got)
	}
	for _, dsl := range []string{
		"teg-degrade:0.2:0.5,pump-droop:0.3",
		"teg-degrade:0.02:0.3,sensor-stuck:0.01,step-error:0.005",
	} {
		p, err := ParsePlan(dsl)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.String(); got != dsl {
			t.Errorf("DSL plan %q renders as %q", dsl, got)
		}
	}
	for _, c := range []struct {
		json, want string
	}{
		{`{"specs":[{"kind":"step-error","rate":0.05}],"retry":{"max_attempts":1}}`,
			"step-error:0.05;max_attempts=1"},
		{`{"specs":[{"kind":"step-error","rate":0.05}],"retry":{"max_attempts":6}}`,
			"step-error:0.05;max_attempts=6"},
		{`{"specs":[{"kind":"sensor-stuck","windows":[{"from":0,"to":10,"unit":-1}]}]}`,
			"sensor-stuck:[0,10)@-1"},
		{`{"specs":[{"kind":"sensor-stuck","windows":[{"from":50,"to":60,"unit":3}],"max_stale":9}]}`,
			"sensor-stuck:[50,60)@3:max_stale=9"},
		{`{"specs":[{"kind":"teg-degrade","windows":[{"from":0,"to":2,"unit":1},{"from":5,"to":7,"unit":-1}],"severity":0.4},{"kind":"teg-open","rate":0.02}]}`,
			"teg-degrade:[0,2)@1+[5,7)@-1:0.4,teg-open:0.02"},
	} {
		p, err := decodePlan([]byte(c.json))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("%s renders as %q, want %q", c.json, got, c.want)
		}
	}
}

func TestDecodePlanRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct {
		json, key string
	}{
		{`{"specs":[{"kind":"teg-degrade","rate":0.1,"severty":0.9}],"retri":{"max_attempts":6}}`, `"severty"`},
		{`{"specs":[{"kind":"teg-degrade","rate":0.1}],"retri":{"max_attempts":6}}`, `"retri"`},
		{`{"specs":[{"kind":"step-error","rate":0.1}],"retry":{"max_attempts":6,"base_delay":1000}}`, `"base_delay"`},
		{`{"specs":[{"kind":"step-error","rate":0.1}],"retry":{"max_delay":4000}}`, `"max_delay"`},
		{`{"specs":[{"kind":"sensor-stuck","windows":[{"from":0,"to":3,"unit":-1,"until":9}]}]}`, `"until"`},
	} {
		_, err := decodePlan([]byte(c.json))
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("%s: error %v does not name %s", c.json, err, c.key)
		}
	}
	for _, trailing := range []string{
		`{"specs":[{"kind":"teg-open","rate":0.02}]}}`,
		`{"specs":[{"kind":"teg-open","rate":0.02}]} {}`,
	} {
		if _, err := decodePlan([]byte(trailing)); err == nil {
			t.Errorf("%s: trailing data accepted", trailing)
		}
	}
}
