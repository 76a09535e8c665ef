//go:build race

package ollock_test

// raceEnabled reports that the race detector is on: it instruments
// every atomic, so absolute-cost tripwires measure the detector.
const raceEnabled = true
