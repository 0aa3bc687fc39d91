package hydro

import "testing"

// Staleness returns how many consecutive stale servings the sensor has made.
func (s *LastGoodSensor) Staleness() int { return s.stale }

func TestLastGoodSensorLifecycle(t *testing.T) {
	var s LastGoodSensor // zero value: DefaultSensorMaxStale
	// Never primed: a stuck channel degrades immediately.
	if v, st := s.Read(50, true); st != SensorDegraded || v != 50 {
		t.Fatalf("unprimed stuck read = %v, %v", v, st)
	}
	// A good reading primes and resets.
	if v, st := s.Read(42, false); st != SensorFresh || v != 42 {
		t.Fatalf("fresh read = %v, %v", v, st)
	}
	// Stuck: serve last-good for the bound...
	for i := 0; i < DefaultSensorMaxStale; i++ {
		v, st := s.Read(60, true)
		if st != SensorStale || v != 42 {
			t.Fatalf("stale read %d = %v, %v, want 42/stale", i, v, st)
		}
	}
	if s.Staleness() != DefaultSensorMaxStale {
		t.Fatalf("staleness = %d", s.Staleness())
	}
	// ...then degrade to the live value.
	if v, st := s.Read(60, true); st != SensorDegraded || v != 60 {
		t.Fatalf("exhausted read = %v, %v, want 60/degraded", v, st)
	}
	// Recovery re-primes at the new value.
	if v, st := s.Read(55, false); st != SensorFresh || v != 55 {
		t.Fatalf("recovered read = %v, %v", v, st)
	}
	if v, st := s.Read(70, true); st != SensorStale || v != 55 {
		t.Fatalf("post-recovery stale read = %v, %v, want 55/stale", v, st)
	}
}

func TestLastGoodSensorExplicitBound(t *testing.T) {
	s := LastGoodSensor{MaxStale: 1}
	s.Read(10, false)
	if _, st := s.Read(99, true); st != SensorStale {
		t.Fatal("first stuck read should be stale")
	}
	if v, st := s.Read(99, true); st != SensorDegraded || v != 99 {
		t.Fatalf("second stuck read = %v, %v, want degraded/live", v, st)
	}
}
