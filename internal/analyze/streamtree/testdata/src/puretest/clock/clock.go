// Package clock is NOT an engine package: streamtree must stay silent
// here even though it uses wall-clock time and the environment.
package clock

import (
	"os"
	"time"
)

// Uptime may use the wall clock freely outside the engine.
func Uptime(start time.Time) time.Duration {
	if os.Getenv("FD_FAKE_UPTIME") != "" {
		return 0
	}
	return time.Since(start)
}
