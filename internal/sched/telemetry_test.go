package sched

import (
	"math"
	"testing"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/telemetry"
)

// TestAttachNilTelemetryKeepsDecideIntoAllocationFree pins the acceptance
// criterion for the disabled regime: a controller explicitly offered the
// no-op (nil) registry must keep the warm decision path at exactly zero
// allocations — telemetry off means off.
func TestAttachNilTelemetryKeepsDecideIntoAllocationFree(t *testing.T) {
	c := newController(t)
	c.AttachTelemetry(nil)
	us := make([]float64, 25)
	for i := range us {
		us[i] = float64(i) / 25
	}
	var sc Scratch
	if _, err := c.Decide(us, Original, c.ColdSource, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Decide(us, Original, c.ColdSource, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Decide with nil registry = %v allocs/op, want 0", allocs)
	}
}

// TestAttachedTelemetryWarmPathAllocationFree checks the enabled regime adds
// no garbage either: counters and histograms record via atomics only, so a
// warm Decide stays allocation-free with a live registry attached.
func TestAttachedTelemetryWarmPathAllocationFree(t *testing.T) {
	c := newController(t)
	c.AttachTelemetry(telemetry.New())
	us := make([]float64, 25)
	for i := range us {
		us[i] = float64(i) / 25
	}
	var sc Scratch
	if _, err := c.Decide(us, Original, c.ColdSource, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Decide(us, Original, c.ColdSource, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Decide with live registry = %v allocs/op, want 0", allocs)
	}
}

// TestAttachedCountersMatchCacheStats drives a column with repeated planes
// and checks the registry-owned counters and the CacheStats accessor read
// the same numbers — the accessor is a thin adapter over the same
// instruments.
func TestAttachedCountersMatchCacheStats(t *testing.T) {
	c := newController(t)
	reg := telemetry.New()
	c.AttachTelemetry(reg)
	col := make([]float64, 40)
	ranges := make([]Range, len(col))
	for i := range col {
		col[i] = float64(i%10) / 10 // 10 planes, 4 rounds
		ranges[i] = Range{Lo: i, Hi: i + 1}
	}
	decideColumn(t, c, col, ranges, Original, 20, &BatchScratch{})
	hits, calls := c.CacheStats()
	if calls != 40 || hits != 30 {
		t.Fatalf("CacheStats = %d hits of %d calls, want 30/40", hits, calls)
	}
	hc := reg.Counter("h2p_decision_cache_hits_total", "").Value()
	cc := reg.Counter("h2p_decision_cache_calls_total", "").Value()
	if hc != hits || cc != calls {
		t.Errorf("registry counters %d/%d != CacheStats %d/%d", hc, cc, hits, calls)
	}
}

// TestChosenSettingDistribution checks the decision histograms see one
// observation per decision — hits included — and that the scan reports its
// work: the evaluation counter sums the rows the kernel visited once per
// distinct plane, fewer than the rows the space handed out, since the early
// exit stops short of a segment's end.
func TestChosenSettingDistribution(t *testing.T) {
	c := newController(t)
	reg := telemetry.New()
	c.AttachTelemetry(reg)
	c.Space.AttachTelemetry(reg)
	const n = 25
	col := make([]float64, n)
	ranges := make([]Range, n)
	for i := range col {
		col[i] = float64(i%5) / 5
		ranges[i] = Range{Lo: i, Hi: i + 1}
	}
	decideColumn(t, c, col, ranges, Original, 20, &BatchScratch{})
	snap := reg.Snapshot()
	var inlet, flow *telemetry.HistogramSnapshot
	for i := range snap.Histograms {
		switch snap.Histograms[i].Name {
		case "h2p_decision_chosen_inlet_celsius":
			inlet = &snap.Histograms[i]
		case "h2p_decision_chosen_flow_lph":
			flow = &snap.Histograms[i]
		}
	}
	if inlet == nil || flow == nil {
		t.Fatal("chosen-setting histograms not registered")
	}
	if inlet.Count != n || flow.Count != n {
		t.Errorf("histogram counts inlet=%d flow=%d, want %d each", inlet.Count, flow.Count, n)
	}
	if inlet.Mean <= 0 || flow.Mean <= 0 {
		t.Errorf("degenerate means inlet=%v flow=%v", inlet.Mean, flow.Mean)
	}
	twin := newController(t)
	idx := twin.Space.SegmentIndex(twin.TSafe-twin.Band, twin.TSafe+twin.Band)
	var buf []lookup.SlabRow
	var want uint64
	for i := range 5 { // the five distinct planes, one scan each
		_, _, _, visited, err := twin.resolvePlane(idx, float64(i)/5, twin.ColdSource, &buf)
		if err != nil {
			t.Fatal(err)
		}
		want += uint64(visited)
	}
	evals := reg.Counter("h2p_decision_powercurve_evals_total", "").Value()
	if evals == 0 || evals != want {
		t.Errorf("power-curve evaluations = %d, want the %d rows the five scans visited", evals, want)
	}
	handed := math.NaN()
	for _, h := range snap.Histograms {
		if h.Name == "h2p_lookup_batch_scan_cells" {
			handed = h.Sum
		}
	}
	if !(float64(evals) < handed) {
		t.Errorf("kernel visited %d rows of the %v handed out, want fewer", evals, handed)
	}
}

// TestAttachTelemetryPreservesDecisions pins that attaching a registry never
// perturbs the numbers: the instrumented controller must return bit-identical
// settings and power to an uninstrumented twin.
func TestAttachTelemetryPreservesDecisions(t *testing.T) {
	plain := newController(t)
	inst := newController(t)
	inst.AttachTelemetry(telemetry.New())
	for i := 0; i <= 100; i++ {
		u := float64(i) / 100
		s1, p1, err := plain.Choose(u, plain.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		s2, p2, err := inst.Choose(u, inst.ColdSource)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 || p1 != p2 {
			t.Fatalf("u=%v: instrumented Choose diverged: %+v/%v vs %+v/%v", u, s2, p2, s1, p1)
		}
	}
}
