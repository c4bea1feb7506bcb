//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// time bound of TestASHARungScales skips under it.
const raceEnabled = true
