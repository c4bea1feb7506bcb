//go:build race

package asha

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it (the instrumented runtime allocates
// differently).
const raceEnabled = true
