//go:build !race

package facsim

const raceEnabled = false
