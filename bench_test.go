package h2p

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates the corresponding artifact through internal/experiments and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both times the regeneration and prints the reproduced numbers. The
// trace-driven benches default to a 100-server cluster for tractable
// iteration time; run cmd/h2pbench for the full 1,000-server tables.

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/h2p-sim/h2p/internal/experiments"
	"github.com/h2p-sim/h2p/internal/trace"
)

// benchParams keeps trace-driven benches fast while preserving shape.
func benchParams() experiments.EvalParams {
	return experiments.EvalParams{Servers: 100, Seed: 42}
}

func benchExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Run(id, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

func lastFloat(b *testing.B, tab *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) of %s: %v", row, col, tab.ID, err)
	}
	return v
}

// BenchmarkFig3TEGConductance regenerates the Fig. 3 transient: the
// TEG-sandwiched CPU overheating at 20 % load.
func BenchmarkFig3TEGConductance(b *testing.B) {
	tab := benchExperiment(b, "fig3")
	mid := len(tab.Rows) / 2
	b.ReportMetric(lastFloat(b, tab, mid, 1), "cpu0_C")
	b.ReportMetric(lastFloat(b, tab, mid, 2), "cpu1_C")
}

// BenchmarkFig7VocVsFlow regenerates the voltage-vs-deltaT curves at four
// flow rates.
func BenchmarkFig7VocVsFlow(b *testing.B) {
	tab := benchExperiment(b, "fig7")
	last := len(tab.Rows) - 1
	b.ReportMetric(lastFloat(b, tab, last, 4), "voc25C_40LH_V")
}

// BenchmarkFig8SeriesScaling regenerates voltage and max power for 1-12
// series TEGs.
func BenchmarkFig8SeriesScaling(b *testing.B) {
	tab := benchExperiment(b, "fig8")
	last := len(tab.Rows) - 1
	b.ReportMetric(lastFloat(b, tab, last, len(tab.Columns)-1), "pmax12_25C_W")
}

// BenchmarkFig9OutletDelta regenerates the outlet temperature rise sweeps.
func BenchmarkFig9OutletDelta(b *testing.B) {
	tab := benchExperiment(b, "fig9")
	b.ReportMetric(float64(len(tab.Rows)), "points")
}

// BenchmarkFig10CPUTempVsUtil regenerates the CPU temperature/frequency map.
func BenchmarkFig10CPUTempVsUtil(b *testing.B) {
	tab := benchExperiment(b, "fig10")
	b.ReportMetric(float64(len(tab.Rows)), "points")
}

// BenchmarkFig11CPUTempVsFlow regenerates the CPU temperature lines at five
// flow rates.
func BenchmarkFig11CPUTempVsFlow(b *testing.B) {
	tab := benchExperiment(b, "fig11")
	b.ReportMetric(float64(len(tab.Rows)), "points")
}

// BenchmarkFig12LookupSpace regenerates the 3-D measurement space and its
// continuous fit.
func BenchmarkFig12LookupSpace(b *testing.B) {
	tab := benchExperiment(b, "fig12")
	b.ReportMetric(float64(len(tab.Rows)), "cloud_rows")
}

// BenchmarkFig13CoolingSelection regenerates the A_max/A_avg safety-slab
// selection.
func BenchmarkFig13CoolingSelection(b *testing.B) {
	tab := benchExperiment(b, "fig13")
	b.ReportMetric(lastFloat(b, tab, 0, 7), "amax_W")
	b.ReportMetric(lastFloat(b, tab, 1, 7), "aavg_W")
}

// BenchmarkFig14TraceDriven regenerates the headline evaluation: per-CPU
// power under both schemes across the three workload classes.
func BenchmarkFig14TraceDriven(b *testing.B) {
	tab := benchExperiment(b, "fig14")
	avg := len(tab.Rows) - 1
	b.ReportMetric(lastFloat(b, tab, avg, 1), "orig_avg_W")
	b.ReportMetric(lastFloat(b, tab, avg, 3), "lb_avg_W")
}

// BenchmarkFig15PRE regenerates the power-reusing-efficiency table.
func BenchmarkFig15PRE(b *testing.B) {
	tab := benchExperiment(b, "fig15")
	avg := len(tab.Rows) - 1
	b.ReportMetric(lastFloat(b, tab, avg, 2), "lb_PRE_pct")
}

// BenchmarkTableITCO regenerates the cost analysis.
func BenchmarkTableITCO(b *testing.B) {
	tab := benchExperiment(b, "tab1")
	for r, row := range tab.Rows {
		if row[0] == "TCO reduction" {
			b.ReportMetric(lastFloat(b, tab, r, 2), "lb_tco_red_pct")
		}
	}
}

// BenchmarkCirculationDesign regenerates the Sec. V-A cost-vs-n curve and
// optimum.
func BenchmarkCirculationDesign(b *testing.B) {
	tab := benchExperiment(b, "circ")
	b.ReportMetric(float64(len(tab.Rows)), "curve_points")
}

// BenchmarkAblationFlowFreedom regenerates the flow-freedom ablation.
func BenchmarkAblationFlowFreedom(b *testing.B) {
	tab := benchExperiment(b, "abl-flow")
	b.ReportMetric(lastFloat(b, tab, 0, 3), "free_W_u0.1")
	b.ReportMetric(lastFloat(b, tab, 0, 7), "pinned_W_u0.1")
}

// BenchmarkAblationStorage regenerates the storage-configuration ablation.
func BenchmarkAblationStorage(b *testing.B) {
	tab := benchExperiment(b, "abl-store")
	b.ReportMetric(lastFloat(b, tab, 0, 1), "hybrid_cov_pct")
}

// BenchmarkAblationTECPowering regenerates the TEG-powering-TEC ablation.
func BenchmarkAblationTECPowering(b *testing.B) {
	tab := benchExperiment(b, "abl-tec")
	b.ReportMetric(lastFloat(b, tab, len(tab.Rows)-1, 5), "cov50W_pct")
}

// BenchmarkCalibrationRecovery regenerates the fit-recovery campaign.
func BenchmarkCalibrationRecovery(b *testing.B) {
	tab := benchExperiment(b, "calib")
	b.ReportMetric(lastFloat(b, tab, 0, 2), "eq3_slope")
}

// BenchmarkFutureZT regenerates the Sec. VI-D material-roadmap projection.
func BenchmarkFutureZT(b *testing.B) {
	tab := benchExperiment(b, "future-zt")
	b.ReportMetric(lastFloat(b, tab, 2, 3), "heusler_W")
}

// BenchmarkReuseComparison regenerates the Sec. II-C reuse-path economics.
func BenchmarkReuseComparison(b *testing.B) {
	tab := benchExperiment(b, "reuse")
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// BenchmarkMPPTTracking regenerates the P&O front-end evaluation.
func BenchmarkMPPTTracking(b *testing.B) {
	tab := benchExperiment(b, "mppt")
	b.ReportMetric(lastFloat(b, tab, 1, 1), "track_eff_pct")
}

// BenchmarkJobMigration regenerates the constrained-balancing study.
func BenchmarkJobMigration(b *testing.B) {
	tab := benchExperiment(b, "jobs")
	b.ReportMetric(lastFloat(b, tab, 4, 5), "captured_pct_b100")
}

// BenchmarkHotSpotTransient regenerates the utilization-step transient with
// the TEG-assisted TEC guard.
func BenchmarkHotSpotTransient(b *testing.B) {
	tab := benchExperiment(b, "hotspot")
	b.ReportMetric(lastFloat(b, tab, 2, 2), "legacy_peak_C")
}

// BenchmarkSensitivityColdSource regenerates the cold-source sweep.
func BenchmarkSensitivityColdSource(b *testing.B) {
	tab := benchExperiment(b, "sens-cold")
	b.ReportMetric(lastFloat(b, tab, 2, 1), "power_at_20C_W")
}

// BenchmarkSensitivityPrice regenerates the tariff sweep.
func BenchmarkSensitivityPrice(b *testing.B) {
	tab := benchExperiment(b, "sens-price")
	b.ReportMetric(lastFloat(b, tab, 2, 3), "breakeven_013_days")
}

// BenchmarkSensitivityCirculation regenerates the circulation-size sweep.
func BenchmarkSensitivityCirculation(b *testing.B) {
	tab := benchExperiment(b, "sens-circ")
	b.ReportMetric(lastFloat(b, tab, 0, 3), "gain_n1_pct")
}

// BenchmarkQuasiStaticValidation regenerates the transient-vs-steady
// validation of the engine's 5-minute-interval assumption.
func BenchmarkQuasiStaticValidation(b *testing.B) {
	tab := benchExperiment(b, "qs-valid")
	b.ReportMetric(lastFloat(b, tab, 0, 3), "worst_end_err_C")
}

// BenchmarkMonteCarloTCO regenerates the 10,000-trial uncertainty analysis.
func BenchmarkMonteCarloTCO(b *testing.B) {
	tab := benchExperiment(b, "mc-tco")
	b.ReportMetric(lastFloat(b, tab, 0, 2), "p50_red_pct")
}

// BenchmarkAgingAnalysis regenerates the lifetime-fade projection.
func BenchmarkAgingAnalysis(b *testing.B) {
	tab := benchExperiment(b, "aging")
	b.ReportMetric(lastFloat(b, tab, 6, 1), "factor_31y")
}

// BenchmarkDCBus regenerates the Sec. VI-D distribution comparison.
func BenchmarkDCBus(b *testing.B) {
	tab := benchExperiment(b, "dc-bus")
	b.ReportMetric(lastFloat(b, tab, 1, 3), "dc_teg_W")
}

// BenchmarkCoolantChoice regenerates the working-fluid comparison.
func BenchmarkCoolantChoice(b *testing.B) {
	tab := benchExperiment(b, "coolant")
	b.ReportMetric(lastFloat(b, tab, 1, 4), "pg25_rise_C")
}

// BenchmarkEngineInterval measures the core simulation cost of a single
// 1,000-server control interval (the inner loop of Fig. 14).
func BenchmarkEngineInterval(b *testing.B) {
	tr, err := trace.Generate(trace.CommonConfig(1000), 42)
	if err != nil {
		b.Fatal(err)
	}
	one, err := tr.Slice(1000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(LoadBalance)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Run a short horizon: one interval's worth of work dominated
		// by the per-circulation decisions.
		short := *one
		short.U = make([][]float64, one.Servers())
		for s := range short.U {
			short.U[s] = one.U[s][:1]
		}
		if _, err := Run(&short, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallel sweeps the engine's shard count on a
// 1,000-server trace (40 circulations per interval, 20-interval horizon):
// the scaling table of the layered Circulation/Engine/Fleet architecture.
// The workers=1/exact case is the seed serial engine's workload. Results
// are bit-identical across the worker sweep; the quantized "cached"
// variants additionally memoize the cooling decision per 1/512 of
// utilization, which collapses the slab search and dominates the speedup
// on few-core hosts (parallel fan-out needs real cores to pay off).
func BenchmarkEngineParallel(b *testing.B) {
	tr, err := trace.Generate(trace.CommonConfig(1000), 42)
	if err != nil {
		b.Fatal(err)
	}
	short := *tr
	short.U = make([][]float64, tr.Servers())
	const horizon = 20
	for s := range short.U {
		short.U[s] = tr.U[s][:horizon]
	}
	bench := func(workers int, quantum float64, label string) {
		b.Run(label, func(b *testing.B) {
			cfg := DefaultConfig(LoadBalance)
			cfg.Workers = workers
			cfg.DecisionQuantum = quantum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(&short, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.AvgTEGPowerPerServer), "avg_W")
				}
			}
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		bench(workers, 0, fmt.Sprintf("workers=%d", workers))
	}
	for _, workers := range []int{1, 4} {
		bench(workers, 1.0/512, fmt.Sprintf("cached/workers=%d", workers))
	}
}

// BenchmarkSKUGenerality regenerates the multi-SKU study.
func BenchmarkSKUGenerality(b *testing.B) {
	tab := benchExperiment(b, "skus")
	b.ReportMetric(lastFloat(b, tab, 0, 4), "d1540_PRE_pct")
}

// BenchmarkControlStability regenerates the hysteresis-deadband study.
func BenchmarkControlStability(b *testing.B) {
	tab := benchExperiment(b, "stability")
	b.ReportMetric(lastFloat(b, tab, 3, 1), "changes_b030")
}
