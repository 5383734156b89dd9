//go:build race

package fastsim

// raceEnabled skips the single-goroutine deep warm-cache test under the
// race detector, whose shadow memory about triples the test's footprint.
const raceEnabled = true
