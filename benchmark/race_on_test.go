//go:build race

package main

// raceEnabled relaxes TestQuick's time limit: the race detector slows the
// simulators about tenfold.
const raceEnabled = true
