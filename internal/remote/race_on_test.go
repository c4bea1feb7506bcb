//go:build race

package remote

// raceEnabled reports whether the race detector is compiled in; tests
// that count allocations skip under it (the instrumented runtime and
// sync.Pool allocate differently).
const raceEnabled = true
