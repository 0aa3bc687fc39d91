package experiments

import (
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

func TestHotSpotTable(t *testing.T) {
	tab, err := HotSpot()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows: H2P noTEC, H2P TEC, legacy noTEC, legacy TEC.
	// The TEC must slash the H2P point's time above safe.
	if cellFloat(t, tab, 1, 4) >= cellFloat(t, tab, 0, 4)/2 {
		t.Error("TEC did not cut time above safe at the H2P point")
	}
	// The unguarded legacy point exceeds the vendor max; the guarded one
	// does not.
	if cellFloat(t, tab, 2, 5) == 0 {
		t.Error("legacy unguarded step should exceed the max operating temperature")
	}
	if cellFloat(t, tab, 3, 5) != 0 {
		t.Error("guarded legacy step should stay under the max operating temperature")
	}
	// Guarded peaks are lower.
	if cellFloat(t, tab, 3, 2) >= cellFloat(t, tab, 2, 2) {
		t.Error("TEC should lower the legacy peak")
	}
}

func TestQuasiStaticValidationTable(t *testing.T) {
	tab, err := QuasiStaticValidation(EvalParams{Servers: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 3 traces x 2 schemes
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		if e := cellFloat(t, tab, r, 3); e > 0.5 {
			t.Errorf("row %d: end-of-interval error %v too large", r, e)
		}
		if mt := cellFloat(t, tab, r, 5); mt > 80 {
			t.Errorf("row %d: transient max temp %v exceeds safety", r, mt)
		}
	}
}

func TestSensitivityColdSourceTable(t *testing.T) {
	tab, err := SensitivityColdSource(EvalParams{Servers: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Power strictly decreases as the cold source warms.
	prev := 1e18
	for r := range tab.Rows {
		p := cellFloat(t, tab, r, 1)
		if p >= prev {
			t.Errorf("row %d: power %v not decreasing", r, p)
		}
		prev = p
	}
	// The 20 °C row reproduces the headline ~4.1-4.2 W.
	if p := cellFloat(t, tab, 2, 1); p < 3.9 || p > 4.4 {
		t.Errorf("20°C power = %v", p)
	}
}

func TestSensitivityPriceTable(t *testing.T) {
	tab, err := SensitivityPrice()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Break-even shrinks as the tariff rises; the $0.13 row matches the
	// paper's 920-day point.
	prev := 1e18
	for r := range tab.Rows {
		be := cellFloat(t, tab, r, 3)
		if be >= prev {
			t.Errorf("row %d: break-even %v not decreasing", r, be)
		}
		prev = be
	}
	if be := cellFloat(t, tab, 2, 3); be < 900 || be > 940 {
		t.Errorf("break-even at $0.13 = %v, want ~920", be)
	}
}

func TestSensitivityCirculationSizeTable(t *testing.T) {
	tab, err := SensitivityCirculationSize(EvalParams{Servers: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The balancing gain vanishes at n=1 and grows with sharing.
	if g := cellFloat(t, tab, 0, 3); g > 0.01 {
		t.Errorf("n=1 gain = %v%%, want 0", g)
	}
	prev := -1.0
	for r := range tab.Rows {
		g := cellFloat(t, tab, r, 3)
		if g < prev-0.5 {
			t.Errorf("row %d: gain %v%% fell from %v%%", r, g, prev)
		}
		prev = g
	}
	// Original power decreases with circulation size.
	if cellFloat(t, tab, len(tab.Rows)-1, 1) >= cellFloat(t, tab, 0, 1) {
		t.Error("Original power should fall as circulations grow")
	}
}

func TestSKUGeneralityTable(t *testing.T) {
	tab, err := SKUGenerality(EvalParams{Servers: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 3 SKUs + the mixed fleet
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every SKU (and the mixed fleet) harvests meaningfully and cuts TCO.
	for r := range tab.Rows {
		if p := cellFloat(t, tab, r, 3); p < 3.5 || p > 5.5 {
			t.Errorf("row %d: harvest %v W outside the plausible band", r, p)
		}
		if red := cellFloat(t, tab, r, 5); red <= 0.3 {
			t.Errorf("row %d: TCO reduction %v", r, red)
		}
	}
	// The low-TDP SKU has the highest PRE (same harvest, smaller draw).
	if cellFloat(t, tab, 0, 4) <= cellFloat(t, tab, 1, 4) {
		t.Error("D-1540 PRE should exceed E5-2650's")
	}
	// The mixed fleet's PRE lies between the per-SKU extremes.
	lo, hi := cellFloat(t, tab, 0, 4), cellFloat(t, tab, 0, 4)
	for r := 1; r < 3; r++ {
		lo = min(lo, cellFloat(t, tab, r, 4))
		hi = max(hi, cellFloat(t, tab, r, 4))
	}
	if pre := cellFloat(t, tab, 3, 4); pre < lo || pre > hi {
		t.Errorf("mixed-fleet PRE %v%% outside the SKU range [%v, %v]", pre, lo, hi)
	}
}

// TestSKUSubTraces pins the mixed fleet's split: SKU k's sub-trace holds the
// servers of circulations c ≡ k (mod 3) in order and forms exactly those
// circulations (the short tail one last), a single SKU gets the whole
// datacenter, and a SKU with no circulation gets no sub-trace.
func TestSKUSubTraces(t *testing.T) {
	tr, err := trace.Generate(trace.CommonConfig(137), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(sched.LoadBalance) // 25-server circulations: 5 full, then 12
	subs := skuSubTraces(tr, cfg, 3)
	for k, circs := range [][]int{{0, 3}, {1, 4}, {2, 5}} {
		var rows [][]float64
		for j, c := range circs {
			lo, hi := cfg.CirculationSpan(tr.Servers(), c)
			rows = append(rows, tr.U[lo:hi]...)
			sublo, subhi := cfg.CirculationSpan(len(subs[k].U), j)
			if subhi-sublo != hi-lo {
				t.Errorf("SKU %d circulation %d: %d servers, want %d", k, j, subhi-sublo, hi-lo)
			}
		}
		if !reflect.DeepEqual(subs[k].U, rows) {
			t.Errorf("SKU %d sub-trace does not hold circulations %v in order", k, circs)
		}
		if n := cfg.Circulations(subs[k].Servers()); n != len(circs) {
			t.Errorf("SKU %d forms %d circulations, want %d", k, n, len(circs))
		}
	}
	if one := skuSubTraces(tr, cfg, 1); !reflect.DeepEqual(one[0].U, tr.U) {
		t.Error("a single SKU's sub-trace should be the whole datacenter")
	}
	small, err := tr.Slice(30) // circulations of 25 and 5 servers
	if err != nil {
		t.Fatal(err)
	}
	if subs := skuSubTraces(small, cfg, 3); subs[2] != nil {
		t.Errorf("SKU 2 has no circulation but got %d servers", subs[2].Servers())
	}
}

// TestSKUGeneralityMixedFleetSeesFaults pins that the mixed-fleet row runs
// through the engine's fault layer like the per-SKU rows: degraded TEG
// modules must lower its harvest.
func TestSKUGeneralityMixedFleetSeesFaults(t *testing.T) {
	plan, err := fault.ParsePlan("teg-degrade:0.2")
	if err != nil {
		t.Fatal(err)
	}
	p := EvalParams{Servers: 75, Seed: 42}
	clean, err := SKUGenerality(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Faults, p.FaultSeed = plan, 1
	faulted, err := SKUGenerality(p)
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean.Rows {
		if got, want := cellFloat(t, faulted, r, 3), cellFloat(t, clean, r, 3); got >= want {
			t.Errorf("row %d (%s): faulted harvest %v W not below fault-free %v W", r, cell(t, clean, r, 0), got, want)
		}
	}
}

func TestControlStabilityTable(t *testing.T) {
	tab, err := ControlStability(EvalParams{Servers: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Setting changes fall as the deadband widens; harvest loss grows
	// but stays small; safety holds throughout.
	prevChanges := 1 << 30
	for r := range tab.Rows {
		ch := int(cellFloat(t, tab, r, 1))
		if ch > prevChanges {
			t.Errorf("row %d: changes %d not non-increasing", r, ch)
		}
		prevChanges = ch
		if loss := cellFloat(t, tab, r, 3); loss > 5 {
			t.Errorf("row %d: harvest loss %v%% too large", r, loss)
		}
		if mt := cellFloat(t, tab, r, 4); mt > 63.2 {
			t.Errorf("row %d: unsafe max temp %v", r, mt)
		}
	}
	if last := int(cellFloat(t, tab, 3, 1)); last >= int(cellFloat(t, tab, 0, 1))/2 {
		t.Error("widest deadband should at least halve the actuations")
	}
}
