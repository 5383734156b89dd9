//go:build !race

package fastsim

const raceEnabled = false
