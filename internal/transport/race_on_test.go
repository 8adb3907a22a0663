//go:build race

package transport

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation allocates — allocation counts are asserted only in
// uninstrumented builds.
const raceEnabled = true
