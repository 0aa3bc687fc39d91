package sched

import (
	"math/rand"
	"testing"
)

func TestNewStabilizedControllerValidation(t *testing.T) {
	c := newController(t)
	if _, err := NewStabilizedController(nil, 0.05); err == nil {
		t.Error("nil inner should error")
	}
	if _, err := NewStabilizedController(c, -1); err == nil {
		t.Error("negative threshold should error")
	}
	if _, err := NewStabilizedController(c, 0.05); err != nil {
		t.Error(err)
	}
}

func TestStabilizedMatchesPlainWithZeroThreshold(t *testing.T) {
	inner := newController(t)
	st, err := NewStabilizedController(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	us := []float64{0.1, 0.3, 0.2}
	plain, err := inner.Decide(us, LoadBalance, inner.ColdSource, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	stab, err := st.Decide(us, LoadBalance)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Setting != stab.Setting {
		t.Errorf("zero threshold should reproduce plain setting: %+v vs %+v",
			plain.Setting, stab.Setting)
	}
	if plain.TotalTEGPower() != stab.TotalTEGPower() {
		t.Error("zero threshold changed the power")
	}
}

func TestStabilizedReducesActuations(t *testing.T) {
	inner := newController(t)
	st, err := NewStabilizedController(inner, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// A jittering workload: small utilization noise every interval.
	rng := rand.New(rand.NewSource(5))
	plainChanges := 0
	var prev Setting
	var lossSum, plainSum float64
	for i := 0; i < 200; i++ {
		u := 0.22 + rng.Float64()*0.06
		us := []float64{u, u + 0.02, u - 0.02}
		plain, err := inner.Decide(us, LoadBalance, inner.ColdSource, &Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && plain.Setting != prev {
			plainChanges++
		}
		prev = plain.Setting
		stab, err := st.Decide(us, LoadBalance)
		if err != nil {
			t.Fatal(err)
		}
		plainSum += float64(plain.TotalTEGPower())
		lossSum += float64(plain.TotalTEGPower() - stab.TotalTEGPower())
		if stab.MaxCPUTemp > inner.TSafe+inner.Band+0.001 {
			t.Fatalf("interval %d: stabilized setting unsafe: %v", i, stab.MaxCPUTemp)
		}
	}
	if plainChanges == 0 {
		t.Skip("workload jitter too small to exercise actuation")
	}
	if st.Changes >= plainChanges/2 {
		t.Errorf("stabilized changes = %d, plain = %d; expected a large reduction",
			st.Changes, plainChanges)
	}
	// The harvest sacrifice stays under 3%.
	if lossSum/plainSum > 0.03 {
		t.Errorf("stabilization lost %.2f%% of harvest", lossSum/plainSum*100)
	}
}

func TestStabilizedSwitchesWhenUnsafe(t *testing.T) {
	inner := newController(t)
	st, err := NewStabilizedController(inner, 10) // huge deadband
	if err != nil {
		t.Fatal(err)
	}
	// Settle on a warm setting at low utilization...
	if _, err := st.Decide([]float64{0.1, 0.1}, LoadBalance); err != nil {
		t.Fatal(err)
	}
	warm := st.last
	// ...then slam the load: the held setting becomes unsafe and must be
	// abandoned despite the deadband.
	d, err := st.Decide([]float64{1, 1}, LoadBalance)
	if err != nil {
		t.Fatal(err)
	}
	if d.Setting == warm {
		t.Error("unsafe held setting was not abandoned")
	}
	if d.MaxCPUTemp > inner.TSafe+inner.Band+0.001 {
		t.Errorf("post-switch temperature unsafe: %v", d.MaxCPUTemp)
	}
}

// TestStabilizedChoosesOncePerInterval pins the stabilized controller's
// cache accounting: each Decide makes exactly one Choose call, whichever
// branch it takes — keeping the held setting, switching because it turned
// unsafe, or switching because re-optimizing gains more than the deadband.
func TestStabilizedChoosesOncePerInterval(t *testing.T) {
	inner := newController(t)
	st, err := NewStabilizedController(inner, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u := 0.1 + rng.Float64()*0.8
		if _, err := st.Decide([]float64{u, u / 2}, LoadBalance); err != nil {
			t.Fatal(err)
		}
	}
	if st.Changes == 0 || st.Changes == st.Intervals {
		t.Fatalf("%d changes in %d intervals: the walk must both hold and switch", st.Changes, st.Intervals)
	}
	if _, calls := inner.CacheStats(); calls != uint64(st.Intervals) {
		t.Errorf("%d Choose calls for %d intervals, want one per interval", calls, st.Intervals)
	}
}
