package fault

import (
	"math"
	"testing"
)

func mustCompile(t *testing.T, p *Plan, seed int64) *Injector {
	t.Helper()
	in, err := p.Compile(seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNilAndEmptyPlansAreHealthy(t *testing.T) {
	for _, p := range []*Plan{nil, {}} {
		in := mustCompile(t, p, 7)
		if in != nil {
			t.Fatalf("plan %+v compiled to non-nil injector", p)
		}
	}
	// A nil injector answers every query as a healthy plant.
	var in *Injector
	if f := in.TEGFactor(3, 9); f != 1 {
		t.Errorf("nil TEGFactor = %v", f)
	}
	if in.TEGOpen(0, 0) || in.SensorStuck(1, 2) || in.StepError(0, 0, 0) {
		t.Error("nil injector reported a fault")
	}
	if f := in.FlowFactor(5, 5); f != 1 {
		t.Errorf("nil FlowFactor = %v", f)
	}
	if in.MaxSensorStale() != DefaultMaxStale {
		t.Errorf("nil MaxSensorStale = %d", in.MaxSensorStale())
	}
	if got := in.Retry().Attempts(); got != DefaultRetryPolicy().MaxAttempts {
		t.Errorf("nil Retry attempts = %d", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Kind: "melted", Rate: 0.1},
		{Kind: TEGDegrade, Rate: -0.1},
		{Kind: TEGDegrade, Rate: 1.5},
		{Kind: TEGDegrade, Rate: math.NaN()},
		{Kind: TEGDegrade, Rate: 0.1, Severity: 2},
		{Kind: TEGDegrade}, // no rate, no windows
		{Kind: PumpDroop, Windows: []Window{{From: 5, To: 5}}},
		{Kind: PumpDroop, Windows: []Window{{From: 0, To: 3, Unit: -2}}},
		{Kind: SensorStuck, Rate: 0.1, MaxStale: -1},
	}
	for i, s := range bad {
		if err := (&Plan{Specs: []Spec{s}}).Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated", i, s)
		}
	}
	ok := &Plan{Specs: []Spec{
		{Kind: TEGDegrade, Rate: 0.1},
		{Kind: TEGOpen, Windows: []Window{{From: 2, To: 9, Unit: -1}}},
		{Kind: SensorStuck, Rate: 0.2, MaxStale: 5},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// Activation must be a pure function of (seed, coordinates): the same query
// answers identically across injectors compiled from the same plan+seed, and
// differently (somewhere) under another seed.
func TestDeterminismAcrossCompiles(t *testing.T) {
	plan := &Plan{Specs: []Spec{
		{Kind: TEGDegrade, Rate: 0.3},
		{Kind: TEGOpen, Rate: 0.1},
		{Kind: PumpDroop, Rate: 0.2},
		{Kind: SensorStuck, Rate: 0.2},
		{Kind: StepError, Rate: 0.1},
	}}
	a := mustCompile(t, plan, 42)
	b := mustCompile(t, plan, 42)
	c := mustCompile(t, plan, 43)
	same, diff := true, false
	for interval := 0; interval < 40; interval++ {
		for unit := 0; unit < 40; unit++ {
			if a.TEGFactor(interval, unit) != b.TEGFactor(interval, unit) ||
				a.TEGOpen(interval, unit) != b.TEGOpen(interval, unit) ||
				a.FlowFactor(interval, unit) != b.FlowFactor(interval, unit) ||
				a.SensorStuck(interval, unit) != b.SensorStuck(interval, unit) ||
				a.StepError(interval, unit, 1) != b.StepError(interval, unit, 1) {
				same = false
			}
			if a.TEGOpen(interval, unit) != c.TEGOpen(interval, unit) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same plan+seed disagreed between compiles")
	}
	if !diff {
		t.Error("different seeds never disagreed — activation ignores the seed")
	}
}

// Persistent TEG faults hit a fixed population fraction for the whole run.
func TestPersistentRateHitsPopulationFraction(t *testing.T) {
	in := mustCompile(t, &Plan{Specs: []Spec{{Kind: TEGOpen, Rate: 0.1}}}, 1)
	const n = 20000
	open := 0
	for s := 0; s < n; s++ {
		if in.TEGOpen(0, s) {
			open++
		}
		// Persistence: the answer may not depend on the interval.
		if in.TEGOpen(0, s) != in.TEGOpen(99, s) {
			t.Fatalf("server %d open-circuit state changed between intervals", s)
		}
	}
	got := float64(open) / n
	if got < 0.08 || got > 0.12 {
		t.Errorf("open-circuit fraction = %.4f, want ~0.10", got)
	}
}

// Transient faults re-roll per interval at the configured rate.
func TestTransientRatePerInterval(t *testing.T) {
	in := mustCompile(t, &Plan{Specs: []Spec{{Kind: SensorStuck, Rate: 0.25}}}, 5)
	const units, intervals = 100, 200
	hits := 0
	for c := 0; c < units; c++ {
		for i := 0; i < intervals; i++ {
			if in.SensorStuck(i, c) {
				hits++
			}
		}
	}
	got := float64(hits) / (units * intervals)
	if got < 0.22 || got > 0.28 {
		t.Errorf("stuck rate = %.4f, want ~0.25", got)
	}
}

func TestWindowsDriveActivation(t *testing.T) {
	plan := &Plan{Specs: []Spec{{
		Kind:    PumpDroop,
		Rate:    1, // ignored: windows take over
		Windows: []Window{{From: 3, To: 6, Unit: 2}, {From: 10, To: 11, Unit: -1}},
	}}}
	in := mustCompile(t, plan, 0)
	for i := 0; i < 14; i++ {
		for circ := 0; circ < 4; circ++ {
			want := (i >= 3 && i < 6 && circ == 2) || i == 10
			if got := in.FlowFactor(i, circ) < 1; got != want {
				t.Errorf("interval %d circ %d: droop = %v, want %v", i, circ, got, want)
			}
		}
	}
}

func TestFlowFactorSeverity(t *testing.T) {
	in := mustCompile(t, &Plan{Specs: []Spec{{
		Kind: PumpDroop, Severity: 0.4,
		Windows: []Window{{From: 0, To: 1, Unit: -1}},
	}}}, 0)
	if f := in.FlowFactor(0, 0); math.Abs(f-0.6) > 1e-15 {
		t.Errorf("FlowFactor = %v, want 0.6", f)
	}
	if f := in.FlowFactor(1, 0); f != 1 {
		t.Errorf("healthy FlowFactor = %v, want 1", f)
	}
}

func TestTEGFactorStacksAndNeverGains(t *testing.T) {
	plan := &Plan{Specs: []Spec{
		{Kind: TEGDegrade, Severity: 0.3, Windows: []Window{{From: 0, To: 100, Unit: -1}}},
		{Kind: TEGDegrade, Severity: 0.5, Windows: []Window{{From: 50, To: 100, Unit: -1}}},
	}}
	in := mustCompile(t, plan, 0)
	early := in.TEGFactor(10, 0)
	late := in.TEGFactor(60, 0)
	if early <= 0 || early >= 1 {
		t.Errorf("single degradation factor = %v, want in (0,1)", early)
	}
	if late >= early {
		t.Errorf("stacked degradation %v not below single %v", late, early)
	}
}

// Step-error attempts re-roll independently, so retries can recover: at
// rate 0.5 some first attempts must fail while a later attempt succeeds.
func TestStepErrorRerollsPerAttempt(t *testing.T) {
	in := mustCompile(t, &Plan{Specs: []Spec{{Kind: StepError, Rate: 0.5}}}, 9)
	recovered := false
	for i := 0; i < 200 && !recovered; i++ {
		if in.StepError(i, 0, 0) && !in.StepError(i, 0, 1) {
			recovered = true
		}
	}
	if !recovered {
		t.Error("no failed first attempt ever recovered on retry")
	}
}

func TestRetryPolicyAttempts(t *testing.T) {
	if n := (RetryPolicy{}).Attempts(); n != 3 {
		t.Errorf("default Attempts = %d, want 3", n)
	}
	if n := (RetryPolicy{MaxAttempts: 1}).Attempts(); n != 1 {
		t.Errorf("Attempts = %d, want 1", n)
	}
}

func TestMaxSensorStale(t *testing.T) {
	in := mustCompile(t, &Plan{Specs: []Spec{{Kind: SensorStuck, Rate: 0.1}}}, 0)
	if in.MaxSensorStale() != DefaultMaxStale {
		t.Errorf("default MaxSensorStale = %d", in.MaxSensorStale())
	}
	in = mustCompile(t, &Plan{Specs: []Spec{{Kind: SensorStuck, Rate: 0.1, MaxStale: 7}}}, 0)
	if in.MaxSensorStale() != 7 {
		t.Errorf("explicit MaxSensorStale = %d, want 7", in.MaxSensorStale())
	}
}

// TestActivationOrderAndAccessIndependent pins the property checkpoint/resume
// is built on (see the Injector doc): activations are pure functions of their
// coordinates, so querying intervals backwards, repeatedly, or only a suffix
// — as a resumed run does — returns exactly what a forward full-run sweep
// saw. A hidden RNG cursor or per-query memo anywhere in the injector would
// fail this immediately.
func TestActivationOrderAndAccessIndependent(t *testing.T) {
	plan := &Plan{Specs: []Spec{
		{Kind: TEGDegrade, Rate: 0.3},
		{Kind: TEGOpen, Rate: 0.1},
		{Kind: PumpDroop, Rate: 0.2},
		{Kind: SensorStuck, Rate: 0.2},
		{Kind: StepError, Rate: 0.1},
	}}
	const intervals, units = 48, 30
	type cell struct {
		tegFactor  float64
		tegOpen    bool
		flowFactor float64
		stuck      bool
		stepErr    bool
	}
	query := func(in *Injector, interval, unit int) cell {
		return cell{
			tegFactor:  in.TEGFactor(interval, unit),
			tegOpen:    in.TEGOpen(interval, unit),
			flowFactor: in.FlowFactor(interval, unit),
			stuck:      in.SensorStuck(interval, unit),
			stepErr:    in.StepError(interval, unit, 2),
		}
	}

	// Forward sweep on one injector: the uninterrupted run.
	forward := mustCompile(t, plan, 42)
	var want [intervals][units]cell
	for i := 0; i < intervals; i++ {
		for u := 0; u < units; u++ {
			want[i][u] = query(forward, i, u)
		}
	}

	// Backward sweep on the same injector: order independence.
	for i := intervals - 1; i >= 0; i-- {
		for u := units - 1; u >= 0; u-- {
			if query(forward, i, u) != want[i][u] {
				t.Fatalf("backward re-query at (%d,%d) changed the activation", i, u)
			}
		}
	}

	// Suffix-only sweep on a fresh compile: the resumed run. It never asks
	// about the completed prefix, yet must see the same tail activations.
	resumed := mustCompile(t, plan, 42)
	const resumeAt = intervals / 2
	for i := intervals - 1; i >= resumeAt; i-- {
		for u := 0; u < units; u++ {
			if query(resumed, i, u) != want[i][u] {
				t.Fatalf("suffix query at (%d,%d) differs from the full-run sweep", i, u)
			}
		}
	}
}

// requireTEGTable checks in's TEGTable for servers [lo, hi) against the
// per-interval queries at each of intervals: nil exactly when a TEG spec is
// windowed, else equal to TEGOpen and, bit for bit, TEGFactor.
func requireTEGTable(t testing.TB, p *Plan, in *Injector, lo, hi int, intervals ...int) {
	t.Helper()
	windowed := false
	for _, s := range p.Specs {
		windowed = windowed || (s.Kind == TEGDegrade || s.Kind == TEGOpen) && len(s.Windows) > 0
	}
	table := in.TEGTable(lo, hi)
	if (table == nil) != (in == nil || windowed) {
		t.Fatalf("plan %v: table %v, windowed TEG spec %v", p, table, windowed)
	}
	if table == nil {
		return
	}
	if len(table) != hi-lo {
		t.Fatalf("plan %v: table of %d entries for servers [%d, %d)", p, len(table), lo, hi)
	}
	for _, interval := range intervals {
		for i, f := range table {
			server := lo + i
			if open := in.TEGOpen(interval, server); open != (f == TEGTableOpen) {
				t.Fatalf("plan %v: server %d interval %d: table %v, TEGOpen %v", p, server, interval, f, open)
			} else if !open && math.Float64bits(f) != math.Float64bits(in.TEGFactor(interval, server)) {
				t.Fatalf("plan %v: server %d interval %d: table %v, TEGFactor %v", p, server, interval, f, in.TEGFactor(interval, server))
			}
		}
	}
}

func TestTEGTableMatchesQueries(t *testing.T) {
	window := []Window{{From: 3, To: 9, Unit: -1}, {From: 0, To: 40, Unit: 17}}
	plans := map[string]*Plan{
		"persistent": {Specs: []Spec{
			{Kind: TEGDegrade, Rate: 0.3}, {Kind: TEGDegrade, Rate: 0.2, Severity: 0.6}, {Kind: TEGOpen, Rate: 0.1},
		}},
		"persistent and transient": {Specs: []Spec{
			{Kind: TEGDegrade, Rate: 0.25, Severity: 0.3}, {Kind: SensorStuck, Rate: 0.1}, {Kind: StepError, Rate: 0.05},
			{Kind: PumpDroop, Windows: window},
		}},
		"no TEG spec":     {Specs: []Spec{{Kind: PumpDroop, Rate: 0.2}}},
		"windowed":        {Specs: []Spec{{Kind: TEGOpen, Windows: window}}},
		"mixed TEG specs": {Specs: []Spec{{Kind: TEGOpen, Rate: 0.1}, {Kind: TEGDegrade, Windows: window}}},
	}
	intervals := make([]int, 48)
	for i := range intervals {
		intervals[i] = i
	}
	for name, p := range plans {
		for seed := int64(0); seed < 4; seed++ {
			in, err := p.Compile(seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireTEGTable(t, p, in, 5, 200, intervals...)
		}
	}
	var none *Injector
	if none.TEGTable(0, 10) != nil {
		t.Fatal("the nil injector has a TEG table")
	}
}
