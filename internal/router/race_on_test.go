//go:build race

package router

// raceEnabled: the race detector instruments allocations, so tests that pin
// allocation counts skip under it.
const raceEnabled = true
