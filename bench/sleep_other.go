//go:build !unix

package main

import "time"

// sleepUntil blocks until the given offset from start.
func sleepUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
}
