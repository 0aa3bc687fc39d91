package hydro

import (
	"errors"
	"math"

	"github.com/h2p-sim/h2p/internal/units"
)

// DefaultSensorMaxStale is how many consecutive intervals a LastGoodSensor
// serves its held reading before it declares itself degraded.
const DefaultSensorMaxStale = 3

// SensorStatus classifies one LastGoodSensor reading.
type SensorStatus int

const (
	// SensorFresh: the live reading was good and was served.
	SensorFresh SensorStatus = iota
	// SensorStale: the sensor is stuck; the last good reading was served
	// within the staleness bound.
	SensorStale
	// SensorDegraded: the sensor is stuck and the staleness bound is
	// exhausted (or no good reading was ever captured); the consumer gets
	// the live value back and should mark the interval degraded.
	SensorDegraded
)

// LastGoodSensor is the fault-tolerant wrapper around a temperature channel:
// while the underlying sensor reads correctly it passes readings through and
// remembers the latest one; when the channel is stuck it serves the held
// last-good reading for at most MaxStale consecutive intervals, after which
// it reports SensorDegraded and hands back the live value rather than keep
// trusting arbitrarily old data.
//
// The zero value is ready to use with DefaultSensorMaxStale. Not safe for
// concurrent use; give each monitored channel its own instance.
type LastGoodSensor struct {
	// MaxStale bounds consecutive stale servings. 0 means
	// DefaultSensorMaxStale.
	MaxStale int

	last   units.Celsius
	stale  int
	primed bool
}

// bound resolves the effective staleness bound.
func (s *LastGoodSensor) bound() int {
	if s.MaxStale > 0 {
		return s.MaxStale
	}
	return DefaultSensorMaxStale
}

// Read reports the value a consumer should act on given the live channel
// value and whether the channel is currently stuck.
func (s *LastGoodSensor) Read(live units.Celsius, stuck bool) (units.Celsius, SensorStatus) {
	if !stuck {
		s.last, s.stale, s.primed = live, 0, true
		return live, SensorFresh
	}
	if s.primed && s.stale < s.bound() {
		s.stale++
		return s.last, SensorStale
	}
	return live, SensorDegraded
}

// SensorState is a LastGoodSensor's serializable snapshot: the held last-good
// reading, the consecutive-stale count, and whether a good reading was ever
// captured. It is the sensor's only cross-interval state, so checkpointing a
// simulation amounts to saving one SensorState per monitored channel.
type SensorState struct {
	Last   units.Celsius `json:"last"`
	Stale  int           `json:"stale"`
	Primed bool          `json:"primed"`
}

// Validate reports a snapshot no LastGoodSensor can produce: a non-finite
// held reading, a negative stale count (which would extend the staleness
// bound), or a held reading or stale count on a sensor that never captured a
// good reading.
func (st SensorState) Validate() error {
	switch {
	case math.IsNaN(float64(st.Last)) || math.IsInf(float64(st.Last), 0):
		return errors.New("hydro: sensor state holds a non-finite reading")
	case st.Stale < 0:
		return errors.New("hydro: sensor state has a negative stale count")
	case !st.Primed && (st.Last != 0 || st.Stale != 0):
		return errors.New("hydro: unprimed sensor state holds a reading")
	}
	return nil
}

// State snapshots the sensor's mutable state. MaxStale is configuration, not
// state, and is deliberately excluded.
func (s *LastGoodSensor) State() SensorState {
	return SensorState{Last: s.last, Stale: s.stale, Primed: s.primed}
}

// SetState restores a snapshot taken with State. A sensor restored from a
// snapshot behaves bit-identically to one that lived through the readings
// that produced it.
func (s *LastGoodSensor) SetState(st SensorState) {
	s.last, s.stale, s.primed = st.Last, st.Stale, st.Primed
}
