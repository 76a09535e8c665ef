//go:build unix

package ollock_test

import (
	"syscall"
	"time"
)

// processCPU is this process's user+system CPU time so far (0 if the
// kernel will not say). Overhead guards that run in `go test ./...`
// next to other packages' CPU-bound suites divide by this instead of
// by wall-clock time: a neighbour can take the processor away, but it
// cannot be billed to us.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
