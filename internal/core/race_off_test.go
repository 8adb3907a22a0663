//go:build !race

package core

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
