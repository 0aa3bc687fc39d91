package sched

import (
	"math"
	"sync"
	"testing"

	"github.com/h2p-sim/h2p/internal/cpu"
	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/teg"
	"github.com/h2p-sim/h2p/internal/units"
)

func newController(t *testing.T) *Controller {
	t.Helper()
	space, err := lookup.Build(cpu.XeonE52650V3(), lookup.DefaultAxes())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		t.Fatal(err)
	}
	mod.FlowDerating = teg.DefaultFlowDerating()
	c, err := NewController(space, mod, 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidation(t *testing.T) {
	space, _ := lookup.Build(cpu.XeonE52650V3(), lookup.DefaultAxes())
	mod, _ := teg.NewModule(teg.SP1848(), 12)
	if _, err := NewController(nil, mod, 20); err == nil {
		t.Error("nil space should error")
	}
	if _, err := NewController(space, nil, 20); err == nil {
		t.Error("nil module should error")
	}
	c, err := NewController(space, mod, 20)
	if err != nil {
		t.Fatal(err)
	}
	if c.TSafe != 62 {
		t.Errorf("TSafe = %v, want the spec's 62", c.TSafe)
	}
}

func TestChooseKeepsCPUSafe(t *testing.T) {
	c := newController(t)
	for _, u := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.95, 1} {
		s, p, err := c.Choose(u, c.ColdSource)
		if err != nil {
			t.Fatalf("u=%v: %v", u, err)
		}
		tcpu := c.Space.CPUTemp(u, s.Flow, s.Inlet)
		if tcpu > c.TSafe+c.Band+1e-9 {
			t.Errorf("u=%v: chosen setting %+v yields unsafe %v", u, s, tcpu)
		}
		if p <= 0 {
			t.Errorf("u=%v: non-positive optimized power %v", u, p)
		}
	}
}

func TestChooseRejectsBadUtilization(t *testing.T) {
	c := newController(t)
	if _, _, err := c.Choose(-0.1, c.ColdSource); err == nil {
		t.Error("negative utilization should error")
	}
	if _, _, err := c.Choose(1.1, c.ColdSource); err == nil {
		t.Error("utilization above 1 should error")
	}
}

func TestChosenPowerDecreasesWithUtilization(t *testing.T) {
	// Fig. 14a: high utilization forces low inlet temperature, hence low
	// TEG power. Above the inlet-cap region the optimized power must be
	// strictly decreasing.
	c := newController(t)
	var prev units.Watts = 1e9
	var first, last units.Watts
	for i, u := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		_, p, err := c.Choose(u, c.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		// The discrete inlet grid (1 °C steps) allows small wiggles,
		// exactly as in the paper's discrete measurement space.
		if p >= prev+0.05 {
			t.Errorf("power at u=%v (%v) not below previous (%v)", u, p, prev)
		}
		prev = p
		if i == 0 {
			first = p
		}
		last = p
	}
	if last >= first-0.3 {
		t.Errorf("power should fall substantially from u=0.4 (%v) to u=1.0 (%v)", first, last)
	}
}

func TestChoosePowerInPaperBand(t *testing.T) {
	// At the paper's typical utilizations the optimized per-CPU power
	// should land in the published ~3.5-4.6 W band.
	c := newController(t)
	for _, u := range []float64{0.15, 0.2, 0.25, 0.3} {
		_, p, err := c.Choose(u, c.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		if p < 3.3 || p > 4.8 {
			t.Errorf("u=%v: optimized power %v outside the published band", u, p)
		}
	}
}

func TestChoosePrefersWarmInletHighFlow(t *testing.T) {
	c := newController(t)
	s, _, err := c.Choose(0.25, c.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer's hardware insight: high flow admits a warm inlet.
	if s.Flow < 150 {
		t.Errorf("chosen flow %v, expected high-flow operating point", s.Flow)
	}
	if s.Inlet < 48 {
		t.Errorf("chosen inlet %v, expected warm-water operating point", s.Inlet)
	}
}

func TestPowerAtZeroBelowColdSource(t *testing.T) {
	c := newController(t)
	// An outlet at or below the cold source generates nothing.
	p := c.PowerAt(Setting{Flow: 200, Inlet: 10}, 0, c.ColdSource)
	if p != 0 {
		t.Errorf("power below cold source = %v, want 0", p)
	}
}

func TestPlaneUtilization(t *testing.T) {
	us := []float64{0.1, 0.5, 0.3}
	if u, err := PlaneUtilization(us, Original); err != nil || u != 0.5 {
		t.Errorf("Original plane = %v, %v", u, err)
	}
	if u, err := PlaneUtilization(us, LoadBalance); err != nil || math.Abs(u-0.3) > 1e-12 {
		t.Errorf("LoadBalance plane = %v, %v", u, err)
	}
	if _, err := PlaneUtilization(nil, Original); err == nil {
		t.Error("empty set should error")
	}
	if _, err := PlaneUtilization(us, Scheme("bogus")); err == nil {
		t.Error("unknown scheme should error")
	}
}

func TestEffectiveUtilizations(t *testing.T) {
	us := []float64{0.2, 0.6}
	orig, err := EffectiveUtilizations(us, Original)
	if err != nil {
		t.Fatal(err)
	}
	if orig[0] != 0.2 || orig[1] != 0.6 {
		t.Errorf("Original should not reschedule: %v", orig)
	}
	orig[0] = 99 // must be a copy
	if us[0] == 99 {
		t.Error("EffectiveUtilizations must not alias input")
	}
	lb, err := EffectiveUtilizations(us, LoadBalance)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb[0]-0.4) > 1e-12 || math.Abs(lb[1]-0.4) > 1e-12 {
		t.Errorf("LoadBalance should even out: %v", lb)
	}
	if _, err := EffectiveUtilizations(nil, Original); err == nil {
		t.Error("empty set should error")
	}
	if _, err := EffectiveUtilizations(us, Scheme("bogus")); err == nil {
		t.Error("unknown scheme should error")
	}
}

func TestDecideLoadBalanceBeatsOriginalOnDispersedLoad(t *testing.T) {
	// The headline result: on a dispersed workload, balancing admits a
	// warmer inlet and harvests more power.
	c := newController(t)
	us := []float64{0.05, 0.1, 0.15, 0.2, 0.1, 0.15, 0.85, 0.1, 0.2, 0.15}
	orig, err := c.Decide(us, Original, c.ColdSource, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := c.Decide(us, LoadBalance, c.ColdSource, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	if lb.TotalTEGPower() <= orig.TotalTEGPower() {
		t.Errorf("LoadBalance %v should beat Original %v", lb.TotalTEGPower(), orig.TotalTEGPower())
	}
	// Both stay safe.
	if orig.MaxCPUTemp > 63.1 || lb.MaxCPUTemp > 63.1 {
		t.Errorf("unsafe temperatures: orig %v lb %v", orig.MaxCPUTemp, lb.MaxCPUTemp)
	}
	// LoadBalance cannot lose work: total CPU power is at least
	// Original's (Eq. 20 is concave, so balancing raises the sum).
	if lb.TotalCPUPower() < orig.TotalCPUPower()-1e-9 {
		t.Errorf("balancing lost CPU power: %v vs %v", lb.TotalCPUPower(), orig.TotalCPUPower())
	}
}

func TestDecidePerServerPowerVariesUnderOriginal(t *testing.T) {
	c := newController(t)
	us := []float64{0.1, 0.9}
	d, err := c.Decide(us, Original, c.ColdSource, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	// The busy server's outlet is hotter, so its module generates more.
	if d.PerServerPower[1] <= d.PerServerPower[0] {
		t.Errorf("busy server power %v should exceed idle %v",
			d.PerServerPower[1], d.PerServerPower[0])
	}
	if d.PerServerCPUPower[1] <= d.PerServerCPUPower[0] {
		t.Error("busy server must draw more CPU power")
	}
}

func TestDecideErrors(t *testing.T) {
	c := newController(t)
	if _, err := c.Decide(nil, Original, c.ColdSource, &Scratch{}); err == nil {
		t.Error("empty circulation should error")
	}
	if _, err := c.Decide([]float64{0.5}, Scheme("bogus"), c.ColdSource, &Scratch{}); err == nil {
		t.Error("unknown scheme should error")
	}
}

func TestChooseFallbackWhenSlabUnreachable(t *testing.T) {
	// With the inlet axis capped far below the safety slab, no setting
	// can push the die into [TSafe-1, TSafe+1]; the controller must fall
	// back to the safety-constrained optimum instead of failing.
	ax := lookup.DefaultAxes()
	ax.Inlet = []float64{30, 32, 34}
	space, err := lookup.Build(cpu.XeonE52650V3(), ax)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := teg.NewModule(teg.SP1848(), 12)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(space, mod, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, p, err := c.Choose(0.1, c.ColdSource)
	if err != nil {
		t.Fatalf("fallback should succeed: %v", err)
	}
	if p <= 0 {
		t.Errorf("fallback power = %v", p)
	}
	// The fallback still picks the warmest admissible inlet.
	if s.Inlet != 34 {
		t.Errorf("fallback inlet = %v, want the warmest grid point", s.Inlet)
	}
	if tc := space.CPUTemp(0.1, s.Flow, s.Inlet); tc > c.TSafe+c.Band {
		t.Errorf("fallback setting unsafe: %v", tc)
	}
}

// TestDecisionCacheExactMemoization pins exact-plane reuse: Choose at the
// same plane twice returns the same decision and counts two calls, no hit,
// while one DecideBatchCold call over two groups at that plane resolves it
// once and counts the second group as a hit.
func TestDecisionCacheExactMemoization(t *testing.T) {
	c := newController(t)
	s1, p1, err := c.Choose(0.35, c.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	s2, p2, err := c.Choose(0.35, c.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || p1 != p2 {
		t.Errorf("repeated Choose drifted: %v/%v vs %v/%v", s1, p1, s2, p2)
	}
	if hits, calls := c.CacheStats(); calls != 2 || hits != 0 {
		t.Errorf("Choose stats = %d hits of %d calls, want 0 of 2", hits, calls)
	}
	b := newController(t)
	out := decideColumn(t, b, []float64{0.35, 0.35}, []Range{{0, 1}, {1, 2}}, Original, 20, &BatchScratch{})
	if out[0].Setting != s1 || out[1].Setting != s1 {
		t.Errorf("batch settings %v, %v; Choose %v", out[0].Setting, out[1].Setting, s1)
	}
	if hits, calls := b.CacheStats(); calls != 2 || hits != 1 {
		t.Errorf("batch stats = %d hits of %d calls, want 1 of 2", hits, calls)
	}
}

func TestDecisionCacheQuantization(t *testing.T) {
	quant := newController(t)
	quant.CacheQuantum = 1.0 / 256
	// Two planes within half a quantum of each other must collapse onto
	// the same decision — in one batch call, onto one resolved plane.
	s1, p1, err := quant.Choose(0.400001, quant.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	s2, p2, err := quant.Choose(0.400002, quant.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || p1 != p2 {
		t.Error("planes within one quantum should share a decision")
	}
	h0, c0 := quant.CacheStats()
	decideColumn(t, quant, []float64{0.400001, 0.400002}, []Range{{0, 1}, {1, 2}}, Original, 20, &BatchScratch{})
	if hits, calls := quant.CacheStats(); hits-h0 != 1 || calls-c0 != 2 {
		t.Errorf("batch stats = %d hits of %d calls, want 1 of 2", hits-h0, calls-c0)
	}
	// The quantized decision matches the exact controller evaluated at
	// the snapped plane.
	exact := newController(t)
	se, pe, err := exact.Choose(math.Round(0.400001*256)/256, exact.ColdSource)
	if err != nil {
		t.Fatal(err)
	}
	if se != s1 || pe != p1 {
		t.Errorf("quantized decision %v/%v != exact at snapped plane %v/%v", s1, p1, se, pe)
	}
	// Quantization never pushes the plane outside [0, 1].
	if _, _, err := quant.Choose(0.9999999, quant.ColdSource); err != nil {
		t.Errorf("plane near 1 should stay valid: %v", err)
	}
	if _, _, err := quant.Choose(0.0000001, quant.ColdSource); err != nil {
		t.Errorf("plane near 0 should stay valid: %v", err)
	}
}

func TestDecisionCacheConcurrentUse(t *testing.T) {
	// Hammer one controller from many goroutines; correctness under -race
	// plus agreement with a fresh controller afterwards.
	c := newController(t)
	c.CacheQuantum = 1.0 / 128
	var wg sync.WaitGroup
	const goroutines = 8
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := float64((i*7+g)%101) / 100
				if _, _, err := c.Choose(u, c.ColdSource); err != nil {
					t.Errorf("concurrent Choose(%v): %v", u, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ref := newController(t)
	ref.CacheQuantum = 1.0 / 128
	for i := 0; i <= 100; i++ {
		u := float64(i) / 100
		s1, p1, err := c.Choose(u, c.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		s2, p2, err := ref.Choose(u, ref.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 || p1 != p2 {
			t.Fatalf("u=%v: concurrently used controller (%v/%v) disagrees with fresh controller (%v/%v)", u, s1, p1, s2, p2)
		}
	}
}
