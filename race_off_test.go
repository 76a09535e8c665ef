//go:build !race

package ollock_test

const raceEnabled = false
