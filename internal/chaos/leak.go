package chaos

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// VerifyNoLeaks is the body of a package's TestMain: it runs the tests and
// then fails the package if any goroutine with a frame under marker (e.g.
// "hetesim/internal/") is still alive after grace — an owner returned
// without stopping something it started. Only the calling goroutine is
// exempt. Stdlib runtime.Stack only.
func VerifyNoLeaks(run func() int, marker string, grace time.Duration) {
	code := run()
	if code != 0 {
		os.Exit(code)
	}
	var leaked []string
	for deadline := time.Now().Add(grace); ; time.Sleep(20 * time.Millisecond) {
		if leaked = leakedGoroutines(marker); len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d goroutine(s) outlived the tests:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
		os.Exit(1)
	}
	os.Exit(0)
}

// leakedGoroutines returns the stacks of all goroutines but the caller's
// that have a frame containing marker.
func leakedGoroutines(marker string) []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	stacks := strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
	var leaked []string
	for _, s := range stacks[1:] { // stacks[0] is the calling goroutine
		if strings.Contains(s, marker) {
			leaked = append(leaked, s)
		}
	}
	return leaked
}
