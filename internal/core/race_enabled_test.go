//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this build.
// Its slowdown can carry a search past a short wall-clock ceiling, so tests
// that compare ceilings keep to the long one under -race.
const raceEnabled = true
