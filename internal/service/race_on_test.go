//go:build race

package service

// raceEnabled: the race detector's runtime allocates now and then on its
// own, so an exact allocation count is not a property of the code.
const raceEnabled = true
