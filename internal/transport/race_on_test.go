//go:build race

package transport

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so allocation counts through framePool say nothing.
const raceEnabled = true
