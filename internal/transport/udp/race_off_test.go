//go:build !race

package udp

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
