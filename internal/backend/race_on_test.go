//go:build race

package backend

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under it.
const raceEnabled = true
