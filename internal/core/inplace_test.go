package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/env"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/heatreuse"
	"github.com/h2p-sim/h2p/internal/hydro"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
	"github.com/h2p-sim/h2p/internal/units"
)

// garbageInterval has every field of a CirculationInterval set to a value
// no step produces. Prefilling parts with it shows whether a step that
// writes its slot in place leaves anything of the slot's old contents behind.
func garbageInterval(t *testing.T) CirculationInterval {
	t.Helper()
	g := CirculationInterval{
		TEGPower: 1e9, CPUPower: 1e9, Inlet: -7, Flow: 1e6, Outlet: -7, MaxCPUTemp: 999,
		PumpPower: 1e9, TowerPower: 1e9, ChillerPower: 1e9, ReusedHeat: 1e9,
		Degraded: true, TEGServers: -1, OpenTEG: -1, DegradedTEG: -1,
		SensorStatus: hydro.SensorDegraded, PumpDrooped: true, Retries: 99,
	}
	v := reflect.ValueOf(g)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("garbageInterval leaves field %s zero", v.Type().Field(i).Name)
		}
	}
	return g
}

// stepColumns drives a fresh one-shard runner of cfg over cols, interval i
// taking cols[i], and returns every interval's parts and errors. With
// prefill, each interval's parts start as garbage instead of zero.
func stepColumns(t *testing.T, cfg Config, cols [][]float64, prefill bool) (*Engine, [][]CirculationInterval, [][]error) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	servers := len(cols[0])
	n := cfg.Circulations(servers)
	runner, err := eng.NewShardRunner(servers, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]CirculationInterval, len(cols))
	errs := make([][]error, len(cols))
	for i, col := range cols {
		parts[i] = make([]CirculationInterval, n)
		errs[i] = make([]error, n)
		if prefill {
			g := garbageInterval(t)
			for k := range parts[i] {
				parts[i][k] = g
			}
		}
		runner.Step(col, i, parts[i], errs[i])
	}
	return eng, parts, errs
}

// TestStepWritesSlotsInPlace pins the in-place step path against the values
// the step used to return: whatever a slot held before, after Step it holds
// exactly the circulation's contribution — a healthy one, one that recovered
// after failed attempts (with the exact retry count), or the bare Degraded
// marker of a circulation whose every attempt failed, whether on an injected
// step error or on a batch-decide failure the injector turned into a
// per-circulation Decide fallback.
func TestStepWritesSlotsInPlace(t *testing.T) {
	const servers, intervals = 60, 24 // three circulations of 20
	tr, err := trace.Generate(trace.CommonConfig(servers), 7)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, intervals)
	for i := range cols {
		if cols[i], err = tr.Column(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	// An injector whose only fault never fires: it switches on the
	// injector-active code paths without changing any physics.
	inert := &fault.Plan{Specs: []fault.Spec{{
		Kind:    fault.StepError,
		Windows: []fault.Window{{From: 1 << 29, To: 1 << 30, Unit: -1}},
	}}}
	withPlan := func(plan *fault.Plan) Config {
		cfg := smallConfig(sched.LoadBalance)
		cfg.Faults = plan
		cfg.FaultSeed = 3
		return cfg
	}
	requireNoErrors := func(t *testing.T, errs [][]error) {
		t.Helper()
		for i := range errs {
			for k, err := range errs[i] {
				if err != nil {
					t.Fatalf("interval %d circulation %d: %v", i, k, err)
				}
			}
		}
	}
	_, ref, refErrs := stepColumns(t, withPlan(inert), cols, false)
	requireNoErrors(t, refErrs)

	t.Run("healthy", func(t *testing.T) {
		_, want, _ := stepColumns(t, withPlan(nil), cols, false)
		_, got, errs := stepColumns(t, withPlan(nil), cols, true)
		requireNoErrors(t, errs)
		for i := range got {
			for k, ci := range got[i] {
				if ci != want[i][k] || ci.Degraded || ci.Retries != 0 {
					t.Fatalf("interval %d circulation %d: slot %+v, want %+v", i, k, ci, want[i][k])
				}
			}
		}
	})

	t.Run("step-errors", func(t *testing.T) {
		plan := &fault.Plan{
			Specs: []fault.Spec{{Kind: fault.StepError, Rate: 0.5}},
			Retry: fault.RetryPolicy{MaxAttempts: 3},
		}
		eng, got, errs := stepColumns(t, withPlan(plan), cols, true)
		requireNoErrors(t, errs)
		attempts := plan.Retry.Attempts()
		degraded, recovered := 0, 0
		for i := range got {
			for k, ci := range got[i] {
				// The referee replays the injector: the first attempt it lets
				// through is the one whose contribution lands in the slot.
				a := 0
				for a < attempts && eng.inj.StepError(i, k, a) {
					a++
				}
				want := CirculationInterval{Degraded: true, Retries: attempts - 1}
				if a < attempts {
					want = ref[i][k]
					want.Retries = a
				}
				if ci != want {
					t.Fatalf("interval %d circulation %d: slot %+v, want %+v", i, k, ci, want)
				}
				switch {
				case a == attempts:
					degraded++
				case a > 0:
					recovered++
				}
			}
		}
		if degraded == 0 || recovered == 0 {
			t.Fatalf("%d degraded and %d recovered circulation-intervals: the plan must produce both", degraded, recovered)
		}
	})

	t.Run("batch-decide-fallback", func(t *testing.T) {
		const poisoned, circ = 5, 1
		poisonedCols := make([][]float64, len(cols))
		copy(poisonedCols, cols)
		poisonedCols[poisoned] = append([]float64(nil), cols[poisoned]...)
		// Circulation 1's servers are 20-39; this one value drags the
		// circulation's balanced plane past 1.
		poisonedCols[poisoned][25] = 50
		_, got, errs := stepColumns(t, withPlan(inert), poisonedCols, true)
		requireNoErrors(t, errs)
		for i := range got {
			for k, ci := range got[i] {
				want := ref[i][k]
				if i == poisoned && k == circ {
					want = CirculationInterval{Degraded: true, Retries: inert.Retry.Attempts() - 1}
				}
				if ci != want {
					t.Fatalf("interval %d circulation %d: slot %+v, want %+v", i, k, ci, want)
				}
			}
		}
	})
}

// TestShardStepAllocationFree pins the warm in-place step of the month
// configuration — LoadBalance at the month-scale quantum, the seasonal
// environment and the heat-reuse sink — at a small size: once the decision
// cache holds the day's planes, a ShardRunner.Step allocates nothing.
func TestShardStepAllocationFree(t *testing.T) {
	const servers = 200
	cfg := DefaultConfig(sched.LoadBalance)
	cfg.DecisionQuantum = 1.0 / 512
	cfg.Env = env.DefaultSeasonal(1)
	cfg.Reuse = heatreuse.DefaultSink()
	tr, err := trace.Generate(trace.CommonConfig(servers), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Circulations(servers)
	runner, err := eng.NewShardRunner(servers, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]CirculationInterval, n)
	errs := make([]error, n)
	col := make([]float64, servers)
	i := 0
	step := func() {
		interval := i % tr.Intervals()
		i++
		if col, err = tr.Column(interval, col); err != nil {
			t.Fatal(err)
		}
		runner.Step(col, interval, parts, errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two passes over the day: a plane the full cache declines on its first
	// miss is admitted on its second.
	for range 2 * tr.Intervals() {
		step()
	}
	if allocs := testing.AllocsPerRun(tr.Intervals(), step); allocs != 0 {
		t.Fatalf("warm ShardRunner.Step allocates %v times per interval, want 0", allocs)
	}
}

// TestPumpPowerFollowsFlow pins the circulation's pump-power memo: under a
// pump-droop plan the realized flow changes from interval to interval, and
// every interval's pump draw must still be, bit for bit, a fresh pump's at
// that flow times the circulation's servers — in an uninterrupted run and in
// one resumed from a mid-run checkpoint, whose rebuilt circulations start
// with no memo.
func TestPumpPowerFollowsFlow(t *testing.T) {
	cfg := smallConfig(sched.LoadBalance)
	cfg.Faults = &fault.Plan{Specs: []fault.Spec{{Kind: fault.PumpDroop, Rate: 0.4, Severity: 0.3}}}
	cfg.FaultSeed = 9
	// Every circulation below has ServersPerCirculation servers.
	fresh := func(flow units.LitersPerHour) units.Watts {
		p := hydro.Pump{Name: "circ", MaxFlow: cfg.PumpMaxFlow, RatedPower: cfg.PumpRatedPower}
		if err := p.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		return p.Power() * units.Watts(float64(cfg.ServersPerCirculation))
	}

	// Per circulation, through the shard step: three circulations, each
	// with its own memo.
	const servers = 60
	tr, err := trace.Generate(trace.IrregularConfig(servers), 4)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, 48)
	for i := range cols {
		if cols[i], err = tr.Column(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, parts, errs := stepColumns(t, cfg, cols, true)
	changed, repeated := 0, 0
	for i := range parts {
		for k, ci := range parts[i] {
			if errs[i][k] != nil {
				t.Fatal(errs[i][k])
			}
			if want := fresh(ci.Flow); math.Float64bits(float64(ci.PumpPower)) != math.Float64bits(float64(want)) {
				t.Fatalf("interval %d circulation %d: pump power %v at flow %v, fresh pump %v", i, k, ci.PumpPower, ci.Flow, want)
			}
			if i > 0 {
				if ci.Flow != parts[i-1][k].Flow {
					changed++
				} else {
					repeated++
				}
			}
		}
	}
	if changed == 0 || repeated == 0 {
		t.Fatalf("flow changed %d and repeated %d times: the plan must exercise both memo paths", changed, repeated)
	}

	// Across a checkpoint: a one-circulation datacenter, so each interval's
	// pump power and mean flow are that circulation's own.
	gcfg := trace.CommonConfig(cfg.ServersPerCirculation)
	gcfg.Horizon = 4 * time.Hour
	check := func(name string, res *Result) {
		t.Helper()
		for i, ir := range res.Intervals {
			if want := fresh(ir.MeanFlow); math.Float64bits(float64(ir.PumpPower)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s interval %d: pump power %v at flow %v, fresh pump %v", name, i, ir.PumpPower, ir.MeanFlow, want)
			}
		}
	}
	full := runStream(t, cfg, gcfg, 6, &RunOptions{KeepSeries: true})
	check("uninterrupted", full)
	var cp *Checkpoint
	src, err := trace.NewGeneratorSource(gcfg, trace.CanonicalSeed(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	halt := &RunOptions{KeepSeries: true, HaltAfter: 20, Checkpoint: &CheckpointOptions{Write: func(c *Checkpoint) error {
		cp = c
		return nil
	}}}
	if _, err := eng.RunSource(src, halt); err != ErrHalted {
		t.Fatalf("halted run: %v, want ErrHalted", err)
	}
	resumed := runStream(t, cfg, gcfg, 6, &RunOptions{KeepSeries: true, Resume: cp})
	check("resumed", resumed)
	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("resumed run differs from the uninterrupted one")
	}
}
