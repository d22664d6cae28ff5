//go:build race

package runstore

// raceEnabled: the race detector's sync.Pool drops a quarter of what is
// put back, so a test that counts a pooled buffer's reuse skips.
const raceEnabled = true
