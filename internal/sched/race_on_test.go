//go:build race

package sched

// raceEnabled lets volume tests shrink under the race detector, which slows
// the slab scan ~20x; race coverage does not depend on the volume.
const raceEnabled = true
