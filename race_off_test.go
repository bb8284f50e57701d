//go:build !race

package repro

const raceEnabled = false
