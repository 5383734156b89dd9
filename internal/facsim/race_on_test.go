//go:build race

package facsim

// raceEnabled skips the single-goroutine machine table under the race
// detector, which slows the slow simulator about fifteenfold.
const raceEnabled = true
