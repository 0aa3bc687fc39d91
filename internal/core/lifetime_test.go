package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// sinkObserver implements both stats sinks. It keeps the first reader of
// each kind the run loop attaches (the live one, read during the run) apart
// from the last (what the observer holds once the run has returned).
type sinkObserver struct {
	liveCache, cache func() (hits, calls uint64)
	liveShard, shard func() ShardStats
	onInterval       func(interval int)
}

func (o *sinkObserver) ObserveInterval(i int, _ IntervalResult) {
	if o.onInterval != nil {
		o.onInterval(i)
	}
}
func (o *sinkObserver) ObserveCheckpoint(int) {}
func (o *sinkObserver) ObserveResume(int)     {}
func (o *sinkObserver) ObserveHalt(int)       {}
func (o *sinkObserver) AttachCacheStats(stats func() (hits, calls uint64)) {
	if o.liveCache == nil {
		o.liveCache = stats
	}
	o.cache = stats
}
func (o *sinkObserver) AttachShardStats(stats func() ShardStats) {
	if o.liveShard == nil {
		o.liveShard = stats
	}
	o.shard = stats
}

// failingSource fails its column read at one interval.
type failingSource struct {
	trace.Source
	at int
}

var errSourceBroken = errors.New("source broken")

func (f *failingSource) NextColumn(dst []float64) (int, error) {
	got, err := f.Source.NextColumn(dst)
	if err == nil && got == f.at {
		return got, errSourceBroken
	}
	return got, err
}

// runWeak holds weak pointers to a finished run's engine and to the
// controller it owns.
type runWeak struct {
	eng  weak.Pointer[Engine]
	ctrl weak.Pointer[sched.Controller]
}

// runForLifetime runs one fresh engine and returns weak pointers to it, so
// the caller holds no strong reference once the run is over.
func runForLifetime(t *testing.T, ctx context.Context, src trace.Source, opts *RunOptions) (runWeak, error) {
	t.Helper()
	cfg := smallConfig(sched.LoadBalance)
	cfg.Workers = 2
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := runWeak{eng: weak.Make(eng), ctrl: weak.Make(eng.Controller())}
	_, err = eng.RunSourceContext(ctx, src, opts)
	return w, err
}

// TestObserverDoesNotPinEngine checks the sink lifetime contract on every
// exit path of the run loop: once RunSourceContext returns, the readers an
// observer holds report the run's final values and no longer reach the
// engine, so a finished run's controller and shard state are collectable while the observer lives on.
func TestObserverDoesNotPinEngine(t *testing.T) {
	gcfg := trace.CanonicalConfigs(60)[0]
	newSrc := func() trace.Source {
		src, err := trace.NewGeneratorSource(gcfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	cases := []struct {
		name    string
		run     func(obs *sinkObserver) (runWeak, error)
		wantErr error
	}{
		{"done", func(obs *sinkObserver) (runWeak, error) {
			return runForLifetime(t, context.Background(), newSrc(), &RunOptions{Observer: obs})
		}, nil},
		{"halted", func(obs *sinkObserver) (runWeak, error) {
			return runForLifetime(t, context.Background(), newSrc(), &RunOptions{
				Checkpoint: &CheckpointOptions{Every: 10, Write: func(*Checkpoint) error { return nil }},
				HaltAfter:  25,
				Observer:   obs,
			})
		}, ErrHalted},
		{"cancelled", func(obs *sinkObserver) (runWeak, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs.onInterval = func(i int) {
				if i == 12 {
					cancel()
				}
			}
			return runForLifetime(t, ctx, newSrc(), &RunOptions{Observer: obs})
		}, context.Canceled},
		{"source-error", func(obs *sinkObserver) (runWeak, error) {
			return runForLifetime(t, context.Background(), &failingSource{Source: newSrc(), at: 17}, &RunOptions{Observer: obs})
		}, errSourceBroken},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			obs := &sinkObserver{}
			w, err := c.run(obs)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("run returned %v, want %v", err, c.wantErr)
			}
			if obs.cache == nil || obs.shard == nil {
				t.Fatal("run did not attach both stats readers")
			}

			// The frozen readers give exactly what the live ones read now
			// that the pipeline has joined.
			liveHits, liveCalls := obs.liveCache()
			hits, calls := obs.cache()
			if hits != liveHits || calls != liveCalls {
				t.Errorf("frozen cache stats %d/%d, live %d/%d", hits, calls, liveHits, liveCalls)
			}
			if calls == 0 {
				t.Error("cache stats report zero decide calls")
			}
			if live, frozen := obs.liveShard(), obs.shard(); !reflect.DeepEqual(live, frozen) {
				t.Errorf("frozen shard stats %+v, live %+v", frozen, live)
			}

			obs.liveCache, obs.liveShard = nil, nil
			runtime.GC()
			if w.eng.Value() != nil {
				t.Error("engine still reachable after the run returned")
			}
			if w.ctrl.Value() != nil {
				t.Error("controller still reachable through the observer after the run returned")
			}
			runtime.KeepAlive(obs)
		})
	}
}
