//go:build !unix

package ollock_test

import "time"

// processCPU is unavailable here; guards that need it skip on 0.
func processCPU() time.Duration { return 0 }
