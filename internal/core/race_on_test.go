//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so an allocation count is not a property of the code.
const raceEnabled = true
