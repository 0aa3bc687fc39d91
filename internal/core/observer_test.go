package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/h2p-sim/h2p/internal/trace"
)

// recordingObserver captures every callback for inspection. It also
// implements CacheStatsSink to receive the decision-count reader.
type recordingObserver struct {
	intervals   []int
	checkpoints []int
	resumes     []int
	halts       []int
	cacheStats  func() (hits, calls uint64)
}

func (o *recordingObserver) ObserveInterval(i int, ir IntervalResult) {
	o.intervals = append(o.intervals, i)
}
func (o *recordingObserver) ObserveCheckpoint(done int) { o.checkpoints = append(o.checkpoints, done) }
func (o *recordingObserver) ObserveResume(start int)    { o.resumes = append(o.resumes, start) }
func (o *recordingObserver) ObserveHalt(done int)       { o.halts = append(o.halts, done) }
func (o *recordingObserver) AttachCacheStats(stats func() (hits, calls uint64)) {
	o.cacheStats = stats
}

// TestObserverSeesEveryIntervalInOrder pins the observer contract: one
// callback per interval, in merge order, with the run's Result bit-identical
// to an unobserved run — observation never steers.
func TestObserverSeesEveryIntervalInOrder(t *testing.T) {
	gcfg := trace.CanonicalConfigs(60)[0]
	cfg := smallConfig(streamEquivSchemes[1])
	cfg.Workers = 4

	src, err := trace.NewGeneratorSource(gcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	plainEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainEng.RunSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}

	obs := &recordingObserver{}
	src2, err := trace.NewGeneratorSource(gcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	obsEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := obsEng.RunSource(src2, &RunOptions{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, observed) {
		t.Error("attaching an observer changed the Result")
	}
	total := src2.Meta().Intervals
	if len(obs.intervals) != total {
		t.Fatalf("observer saw %d intervals, want %d", len(obs.intervals), total)
	}
	for i, got := range obs.intervals {
		if got != i {
			t.Fatalf("interval callback %d carried index %d; callbacks must arrive in merge order", i, got)
		}
	}
	if obs.cacheStats == nil {
		t.Fatal("CacheStatsSink was not attached")
	}
	if _, calls := obs.cacheStats(); calls == 0 {
		t.Error("cache stats report zero decide calls after a full run")
	}
	if len(obs.resumes) != 0 || len(obs.halts) != 0 {
		t.Errorf("fresh uninterrupted run observed resumes=%v halts=%v", obs.resumes, obs.halts)
	}
}

// TestObserverCheckpointResumeHalt walks the lifecycle callbacks through a
// halt/resume cycle: cadence checkpoints, the halt-boundary checkpoint, the
// halt itself, and the resume marker on the second run.
func TestObserverCheckpointResumeHalt(t *testing.T) {
	gcfg := trace.CanonicalConfigs(60)[0]
	cfg := smallConfig(streamEquivSchemes[0])
	cfg.Workers = 2

	var latest *Checkpoint
	save := func(cp *Checkpoint) error { latest = cp; return nil }

	obs1 := &recordingObserver{}
	src, err := trace.NewGeneratorSource(gcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng1, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng1.RunSource(src, &RunOptions{
		Checkpoint: &CheckpointOptions{Every: 10, Write: save},
		HaltAfter:  25,
		Observer:   obs1,
	})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("halting run returned %v, want ErrHalted", err)
	}
	if latest == nil {
		t.Fatal("no checkpoint written at halt")
	}
	if want := []int{10, 20, 25}; !reflect.DeepEqual(obs1.checkpoints, want) {
		t.Errorf("checkpoint callbacks = %v, want %v", obs1.checkpoints, want)
	}
	if want := []int{25}; !reflect.DeepEqual(obs1.halts, want) {
		t.Errorf("halt callbacks = %v, want %v", obs1.halts, want)
	}
	if len(obs1.intervals) != 25 {
		t.Errorf("halted run observed %d intervals, want 25", len(obs1.intervals))
	}

	obs2 := &recordingObserver{}
	src2, err := trace.NewGeneratorSource(gcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := eng2.RunSource(src2, &RunOptions{Resume: latest, Observer: obs2})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{25}; !reflect.DeepEqual(obs2.resumes, want) {
		t.Errorf("resume callbacks = %v, want %v", obs2.resumes, want)
	}
	total := src2.Meta().Intervals
	if len(obs2.intervals) != total-25 {
		t.Errorf("resumed run observed %d intervals, want %d", len(obs2.intervals), total-25)
	}
	if len(obs2.intervals) > 0 && obs2.intervals[0] != 25 {
		t.Errorf("resumed run's first interval = %d, want 25", obs2.intervals[0])
	}

	// The resumed result matches an uninterrupted run: observation plus
	// halt/resume still lands on the same bits.
	src3, err := trace.NewGeneratorSource(gcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng3, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng3.RunSource(src3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Error("resumed+observed result differs from uninterrupted run")
	}
}
