package core

import (
	"fmt"
	"testing"

	"github.com/h2p-sim/h2p/internal/lookup"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// benchIntervalState builds a 10k-server engine plus a ring of trace columns
// for steady-state interval stepping. The columns come from the Common class
// generator — the trace whose plane churn is most representative — and the
// first pass of the benchmark loop grows the scratches, exactly like a run's
// first interval.
type benchIntervalState struct {
	cfg     Config
	space   *lookup.Space
	servers int
	circs   []Circulation
	cols    [][]float64
	buf     []float64
	parts   []CirculationInterval
	errs    []error
	ws      workerState
}

func newBenchIntervalState(b *testing.B, servers int, gcfg trace.GeneratorConfig) *benchIntervalState {
	b.Helper()
	cfg := DefaultConfig(sched.Original)
	cfg.Workers = 1
	space, err := lookup.Build(cfg.Spec, cfg.Axes)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(gcfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	st := &benchIntervalState{cfg: cfg, space: space, servers: servers}
	const ring = 16
	for i := 0; i < ring && i < len(tr.U[0]); i++ {
		col := make([]float64, servers)
		for s := 0; s < servers; s++ {
			col[s] = tr.U[s][i]
		}
		st.cols = append(st.cols, col)
	}
	st.buf = make([]float64, servers)
	eng, err := newEngineWithSpace(cfg, space)
	if err != nil {
		b.Fatal(err)
	}
	st.circs = eng.circulationsRange(servers, 0, eng.cfg.Circulations(servers))
	st.parts = make([]CirculationInterval, len(st.circs))
	st.errs = make([]error, len(st.circs))
	return st
}

// column materializes the interval-i column. With churn, every server's
// utilization is scaled by a deterministic per-iteration factor just under 1,
// so every circulation's plane key is fresh — the steady state of a
// CacheQuantum=0 run, where real columns almost never repeat
// bit-identically. Without churn the ring columns repeat verbatim; the
// controller keeps nothing across intervals, so that saves only the
// scaling pass.
func (st *benchIntervalState) column(i int, churn bool) []float64 {
	col := st.cols[i%len(st.cols)]
	if !churn {
		return col
	}
	scale := 1 - float64(i%100003+1)*1e-9
	for s, u := range col {
		st.buf[s] = u * scale
	}
	return st.buf
}

// step runs one interval over column i through the batched block step.
func (st *benchIntervalState) step(b *testing.B, i int, churn bool) {
	col := st.column(i, churn)
	stepBlock(st.circs, col, i, &st.ws, st.parts, st.errs)
	for ci, err := range st.errs {
		if err != nil {
			b.Fatalf("circulation %d: %v", ci, err)
		}
	}
}

// benchInterval measures one full control interval — decide + harvest +
// plant — over a 10k-server column, single worker. The churn variants
// present fresh plane keys every iteration (the CacheQuantum=0 steady
// state); the warm variants replay the ring verbatim.
func benchInterval(b *testing.B, servers int, churn bool, gcfg trace.GeneratorConfig) {
	st := newBenchIntervalState(b, servers, gcfg)
	st.step(b, 0, false) // grow the scratches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.step(b, i, churn)
	}
	b.ReportMetric(float64(servers)*float64(b.N)/b.Elapsed().Seconds(), "servers/s")
}

func BenchmarkIntervalThroughputBatch10k(b *testing.B) {
	benchInterval(b, 10000, true, trace.CommonConfig(10000))
}

func BenchmarkIntervalThroughputBatchWarm10k(b *testing.B) {
	benchInterval(b, 10000, false, trace.CommonConfig(10000))
}

// BenchmarkIntervalThroughputClasses runs the churn regime per trace class.
func BenchmarkIntervalThroughputClasses(b *testing.B) {
	const servers = 10000
	for _, gcfg := range trace.CanonicalConfigs(servers) {
		b.Run(fmt.Sprintf("class=%s", gcfg.Class), func(b *testing.B) {
			benchInterval(b, servers, true, gcfg)
		})
	}
}
