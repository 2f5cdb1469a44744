//go:build race

package experiments

// raceEnabled reports whether the race detector is instrumenting this build.
// Its ~10x slowdown lets the wall-clock solve limit cut MILP searches that
// finish in time otherwise, so tests pinned to recorded runs skip themselves
// under -race.
const raceEnabled = true
