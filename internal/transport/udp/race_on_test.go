//go:build race

package udp

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool drops a random share of what is put back — pool-bounded
// counts are asserted only in uninstrumented builds.
const raceEnabled = true
