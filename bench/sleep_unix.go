//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until the given offset from start. The runtime's
// timers are only good to about a millisecond when the process is idle
// (an idle P waits in epoll with a millisecond timeout), which is several
// times a warm request; nanosleep wakes within tens of microseconds.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		wait := due - time.Since(start)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
