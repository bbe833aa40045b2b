package router

import (
	"testing"
	"time"

	"hetesim/internal/chaos"
)

// TestMain fails the package when a goroutine running this repo's code
// outlives the tests: every server a test starts must be Closed, every
// follower loop canceled and awaited.
func TestMain(m *testing.M) {
	chaos.VerifyNoLeaks(m.Run, "hetesim/internal/", 2*time.Second)
}
