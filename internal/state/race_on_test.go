//go:build race

package state

// raceEnabled reports whether the race detector is compiled in; the
// allocation checks allow for its drift.
const raceEnabled = true
