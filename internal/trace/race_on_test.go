//go:build race

package trace

// raceEnabled lets volume tests shrink under the race detector, which slows
// the stream referee ~10x; race coverage does not depend on the volume.
const raceEnabled = true
