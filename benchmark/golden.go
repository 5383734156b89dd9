package main

// Digests of every (program, configuration, insts, cycles, exit, output) at
// seed 1. A change to any of them means simulated results moved: only host
// time may move between commits.
const (
	goldenSteady = "273d023624d1af4d"
	goldenCold   = "286506d3aa1e48b1"
	goldenCapped = "280aa2f030ab40bf"
	goldenServe  = "cf82f3d7a589cf6b"
	goldenFleet  = "cf82f3d7a589cf6b"
)
