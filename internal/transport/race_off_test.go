//go:build !race

package transport

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
