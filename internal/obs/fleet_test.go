package obs

import (
	"bytes"
	"context"
	"testing"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/telemetry"
	"github.com/h2p-sim/h2p/internal/trace"
)

// cacheRecorder is a RunRecorder that also keeps the last cache reader the
// run loop attached, so a test can read the run's own counts once it is over.
type cacheRecorder struct {
	*RunRecorder
	stats func() (hits, calls uint64)
}

func (c *cacheRecorder) AttachCacheStats(stats func() (hits, calls uint64)) {
	c.RunRecorder.AttachCacheStats(stats)
	c.stats = stats
}

// journalFleet runs both schemes over one trace concurrently through a Fleet,
// each run journaled by its own recorder, with reg as the engines' shared
// registry (nil for none). It returns each run's final journaled cache hit
// rate and the hits and calls its recorder read, summed over the runs.
func journalFleet(t *testing.T, reg *telemetry.Registry) (rates map[string]float64, hits, calls uint64) {
	t.Helper()
	tr, err := trace.Generate(trace.DrasticConfig(60), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(sched.Original)
	cfg.ServersPerCirculation = 20
	cfg.Workers = 1
	cfg.DecisionQuantum = 1.0 / 512
	cfg.Telemetry = reg

	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	open := func() (trace.Source, error) { return trace.NewTraceSource(tr) }
	var recs []*cacheRecorder
	var runs []core.SourceRun
	for _, scheme := range []sched.Scheme{sched.Original, sched.LoadBalance} {
		m := Manifest{RunID: "fleet", Trace: tr.Name, Intervals: tr.Intervals(),
			Config: RunConfig{Scheme: string(scheme)}}
		cr := &cacheRecorder{RunRecorder: NewRunRecorder(rec, m, 0)}
		recs = append(recs, cr)
		runs = append(runs, core.SourceRun{Open: open, Scheme: scheme, Opts: &core.RunOptions{Observer: cr}})
	}
	if _, err := core.NewFleet().RunSourcesContext(context.Background(), cfg, runs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rates = make(map[string]float64)
	for _, s := range Summarize(records) {
		if s.Progress == nil {
			t.Fatalf("run %s journaled no progress", s.Run)
		}
		rates[s.Run] = s.Progress.CacheHitRate
	}
	for _, cr := range recs {
		h, c := cr.stats()
		hits, calls = hits+h, calls+c
	}
	return rates, hits, calls
}

// TestSharedRegistryKeepsRunCacheRates checks that a registry shared by
// concurrent Fleet runs aggregates their decision counts without
// leaking into either run's journal: each run journals the hit rate it
// journals with no registry, and the registry's totals are the runs' sum.
func TestSharedRegistryKeepsRunCacheRates(t *testing.T) {
	want, _, _ := journalFleet(t, nil)
	reg := telemetry.New()
	got, hits, calls := journalFleet(t, reg)
	if len(got) != 2 {
		t.Fatalf("journaled %d runs, want 2", len(got))
	}
	for run, rate := range got {
		if rate != want[run] {
			t.Errorf("%s: cache_hit_rate %v with a shared registry, %v without", run, rate, want[run])
		}
		if rate <= 0 || rate >= 1 {
			t.Errorf("%s: cache_hit_rate %v, want a rate strictly inside (0, 1)", run, rate)
		}
	}
	if rh := reg.Counter("h2p_decision_cache_hits_total", "").Value(); rh != hits {
		t.Errorf("registry cache hits = %d, runs' sum %d", rh, hits)
	}
	if rc := reg.Counter("h2p_decision_cache_calls_total", "").Value(); rc != calls {
		t.Errorf("registry cache calls = %d, runs' sum %d", rc, calls)
	}
}
