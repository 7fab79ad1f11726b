//go:build race

package engine_test

// Under the race detector sync.Pool drops a random share of Puts, so
// tests that count what recycling saves cannot hold.
func init() { raceEnabled = true }
