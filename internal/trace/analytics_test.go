package trace

import (
	"math"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/stats"
)

// analytics summarizes the temporal structure of a trace — the quantities
// that distinguish the paper's three workload classes beyond their means.
// It is the referee the generator's class tests check against.
type analytics struct {
	// Utilization is the pooled sample summary.
	Utilization stats.Summary
	// TemporalStd is the mean over servers of each server's standard
	// deviation across time: how much individual servers fluctuate.
	TemporalStd float64
	// SpatialStd is the mean over intervals of the cross-server standard
	// deviation: how dispersed the cluster is at any instant (what the
	// workload balancer collapses).
	SpatialStd float64
	// MeanDispersion is the mean over intervals of Umax - Uavg.
	MeanDispersion float64
	// Lag1Autocorr is the mean per-server lag-1 autocorrelation: near 1
	// for smooth series, low for drastic fluctuation.
	Lag1Autocorr float64
	// BurstFraction is the fraction of samples more than 2 temporal
	// standard deviations above their server's own mean.
	BurstFraction float64
}

// analyze computes the temporal analytics of a trace.
func analyze(t *Trace) (analytics, error) {
	if err := t.Validate(); err != nil {
		return analytics{}, err
	}
	var a analytics
	var err error
	if a.Utilization, err = t.Describe(); err != nil {
		return analytics{}, err
	}

	// Per-server temporal statistics.
	var sumStd, sumAC, bursts, samples float64
	for _, row := range t.U {
		mean, sd := meanStd(row)
		sumStd += sd
		sumAC += lag1(row, mean, sd)
		for _, u := range row {
			samples++
			if sd > 0 && u > mean+2*sd {
				bursts++
			}
		}
	}
	n := float64(t.Servers())
	a.TemporalStd = sumStd / n
	a.Lag1Autocorr = sumAC / n
	if samples > 0 {
		a.BurstFraction = bursts / samples
	}

	// Per-interval spatial statistics.
	col := make([]float64, t.Servers())
	var sumSpatial, sumDisp float64
	for i := 0; i < t.Intervals(); i++ {
		if col, err = t.Column(i, col); err != nil {
			return analytics{}, err
		}
		mean, sd := meanStd(col)
		sumSpatial += sd
		sumDisp += stats.Max(col) - mean
	}
	m := float64(t.Intervals())
	a.SpatialStd = sumSpatial / m
	a.MeanDispersion = sumDisp / m
	return a, nil
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if len(xs) > 1 {
		sd = math.Sqrt(ss / float64(len(xs)-1))
	}
	return mean, sd
}

// lag1 returns the lag-1 autocorrelation of xs, or 0 for degenerate series.
func lag1(xs []float64, mean, sd float64) float64 {
	if len(xs) < 3 || sd == 0 {
		return 0
	}
	var num float64
	for i := 1; i < len(xs); i++ {
		num += (xs[i] - mean) * (xs[i-1] - mean)
	}
	den := sd * sd * float64(len(xs)-1)
	return num / den
}

// balanced returns a copy of the trace with every interval's load spread
// evenly across all servers — the TEG_LoadBalance scheduling outcome
// (Sec. V-B2). Total work per interval is preserved.
func balanced(t *Trace) *Trace {
	nt, _ := New(t.Name+"-balanced", t.Class, t.Servers(), t.Intervals(), t.Interval)
	for i := 0; i < t.Intervals(); i++ {
		var sum float64
		for s := range t.U {
			sum += t.U[s][i]
		}
		avg := sum / float64(t.Servers())
		for s := range nt.U {
			nt.U[s][i] = avg
		}
	}
	return nt
}

func TestAnalyzeDistinguishesClasses(t *testing.T) {
	trs, err := GenerateAll(200, 42)
	if err != nil {
		t.Fatal(err)
	}
	drastic, err := analyze(trs[0])
	if err != nil {
		t.Fatal(err)
	}
	irregular, err := analyze(trs[1])
	if err != nil {
		t.Fatal(err)
	}
	common, err := analyze(trs[2])
	if err != nil {
		t.Fatal(err)
	}
	// Drastic fluctuates temporally far more than common.
	if drastic.TemporalStd < 2.5*common.TemporalStd {
		t.Errorf("drastic temporal std %v should dwarf common %v",
			drastic.TemporalStd, common.TemporalStd)
	}
	// Common is the smoothest: highest lag-1 autocorrelation.
	if common.Lag1Autocorr <= drastic.Lag1Autocorr {
		t.Errorf("common autocorr %v should exceed drastic %v",
			common.Lag1Autocorr, drastic.Lag1Autocorr)
	}
	// Irregular's signature is bursts: its burst fraction beats common's.
	if irregular.BurstFraction <= common.BurstFraction {
		t.Errorf("irregular bursts %v should exceed common %v",
			irregular.BurstFraction, common.BurstFraction)
	}
	// Dispersion (what balancing collapses) is positive everywhere.
	for _, a := range []analytics{drastic, irregular, common} {
		if a.MeanDispersion <= 0 || a.SpatialStd <= 0 {
			t.Errorf("degenerate spatial stats: %+v", a)
		}
	}
}

func TestAnalyzeBalancedTraceHasNoSpatialSpread(t *testing.T) {
	tr, err := Generate(DrasticConfig(50), 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyze(balanced(tr))
	if err != nil {
		t.Fatal(err)
	}
	if a.SpatialStd > 1e-9 || a.MeanDispersion > 1e-9 {
		t.Errorf("balanced trace should have zero spatial spread: %+v", a)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	tr, _ := New("bad", Common, 2, 2, time.Minute)
	tr.U[0][0] = 2
	if _, err := analyze(tr); err == nil {
		t.Error("invalid trace should error")
	}
}
