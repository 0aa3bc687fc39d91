package fault

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePlan feeds arbitrary bytes to both plan readers — the
// kind:rate[:severity] DSL of ParsePlan and the JSON document of a plan
// file — and checks that neither panics and that every plan either reader
// accepts is valid, compiles, and yields an injector whose factors stay in
// [0, 1]. A DSL plan must also survive a String round trip.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"teg-degrade:0.1",
		"teg-degrade:0.1:0.5, pump-droop:0.05",
		"sensor-stuck:0.2,step-error:0.01,teg-open:1",
		"pump-droop:1:1",
		"teg-degrade:1e-300:0",
		"teg-degrade:0.1:1:2",
		"melted:0.1",
		",,",
		`{"specs":[{"kind":"teg-open","rate":0.02}]}`,
		`{"specs":[{"kind":"sensor-stuck","windows":[{"from":2,"to":5,"unit":-1}],"max_stale":4}],"retry":{"max_attempts":5}}`,
		`{"specs":[{"kind":"teg-degrade","rate":0.5,"severity":1}]}`,
		`{"specs":[{"kind":"teg-open"}]}`,
		`{"specs":null}`,
		`{"specs":[{"kind":"teg-degrade","rate":0.1,"severty":0.9}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if p, err := decodePlan([]byte(s)); err == nil {
			checkPlan(t, p)
		}

		// ParsePlan reads a value naming an existing file as a plan file;
		// the fuzzer must not wander the file system.
		if _, err := os.Stat(strings.TrimSpace(s)); err == nil {
			t.Skip("input names an existing file")
		}
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		if p == nil {
			if strings.TrimSpace(s) != "" {
				t.Fatalf("ParsePlan(%q) returned no plan and no error", s)
			}
			return
		}
		checkPlan(t, p)
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) rejects the String %q of its own plan: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(again.Specs, p.Specs) {
			t.Fatalf("String round trip changed the plan: %+v -> %+v", p.Specs, again.Specs)
		}
	})
}

// checkPlan asserts the contract of an accepted plan: it validates, compiles
// under any seed, and its injector reports bounded factors.
func checkPlan(t *testing.T, p *Plan) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("accepted plan fails Validate: %v", err)
	}
	in, err := p.Compile(7)
	if err != nil {
		t.Fatalf("valid plan fails Compile: %v", err)
	}
	if (in == nil) != p.Empty() {
		t.Fatalf("Compile returned injector %v for a plan with %d specs", in, len(p.Specs))
	}
	if in.Retry().Attempts() < 1 || in.MaxSensorStale() < 1 {
		t.Fatalf("injector retry %+v, max stale %d", in.Retry(), in.MaxSensorStale())
	}
	for interval := 0; interval < 4; interval++ {
		for unit := 0; unit < 4; unit++ {
			if f := in.TEGFactor(interval, unit); f < 0 || f > 1 {
				t.Fatalf("TEGFactor(%d, %d) = %v outside [0, 1]", interval, unit, f)
			}
			if f := in.FlowFactor(interval, unit); f < 0 || f > 1 {
				t.Fatalf("FlowFactor(%d, %d) = %v outside [0, 1]", interval, unit, f)
			}
			in.TEGOpen(interval, unit)
			in.SensorStuck(interval, unit)
			in.StepError(interval, unit, 0)
		}
	}
}

// FuzzTEGTable draws a TEG plan — a degradation and an open-circuit stream,
// each rate-based or windowed — a seed, a server range and an interval, and
// checks that the injector's TEGTable agrees with its per-interval queries.
func FuzzTEGTable(f *testing.F) {
	f.Add(0.3, 0.1, 0.5, uint8(0), int64(1), uint16(0), uint8(64), uint16(0))
	f.Add(0.02, 0.0, 0.3, uint8(1), int64(7), uint16(900), uint8(200), uint16(37))
	f.Add(1.0, 1.0, 1.0, uint8(3), int64(-5), uint16(12), uint8(1), uint16(5))
	f.Fuzz(func(t *testing.T, degrade, open, severity float64, windowed uint8, seed int64, lo uint16, n uint8, interval uint16) {
		p := &Plan{}
		for i, s := range []Spec{{Kind: TEGDegrade, Rate: degrade, Severity: severity}, {Kind: TEGOpen, Rate: open}} {
			if windowed>>i&1 == 1 {
				s.Rate, s.Windows = 0, []Window{{From: int(interval) / 2, To: int(interval) + 1, Unit: int(lo) + i - 1}}
			}
			if s.Validate() == nil {
				p.Specs = append(p.Specs, s)
			}
		}
		in, err := p.Compile(seed)
		if err != nil {
			t.Fatal(err)
		}
		requireTEGTable(t, p, in, int(lo), int(lo)+int(n), int(interval))
	})
}
