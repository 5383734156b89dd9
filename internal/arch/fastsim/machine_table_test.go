package fastsim

import (
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/workloads"
)

// fastsimPin is the memoizing simulator's exact behaviour on one bundled
// program at scale 1 with the paper's 256 MB action-cache cap: committed
// instructions and simulated cycles, the memoized bytes and the cache's
// misses and clears, and the step counters behind them.
type fastsimPin struct {
	insts, cycles                 uint64
	memoBytes, misses, clears     uint64
	slowSteps, replays, keyMisses uint64
	entries                       uint64
}

// fastsimPins holds every bundled program's counters. They change only
// with the timing model, the key or the recorder; replay must leave them
// alone however it dispatches.
var fastsimPins = map[string]fastsimPin{
	"099.go":       {283418, 216717, 355174, 76, 0, 318, 78020, 0, 242},
	"124.m88ksim":  {34037, 22967, 154010, 8, 0, 86, 5805, 0, 78},
	"126.gcc":      {88552, 59754, 377068, 36, 0, 237, 15814, 0, 201},
	"129.compress": {46719, 45148, 50156, 10, 0, 31, 5305, 0, 21},
	"130.li":       {15801, 13864, 88899, 7, 0, 43, 3689, 0, 36},
	"132.ijpeg":    {88622, 55295, 376802, 53, 0, 190, 10016, 0, 137},
	"134.perl":     {41790, 28318, 227978, 36, 0, 169, 6741, 0, 133},
	"147.vortex":   {42297, 36773, 139609, 29, 0, 95, 11009, 0, 66},
	"101.tomcatv":  {58040, 61934, 117988, 8, 0, 47, 3896, 0, 39},
	"102.swim":     {58273, 56192, 120814, 8, 0, 41, 3267, 0, 33},
	"103.su2cor":   {48246, 21614, 196015, 17, 0, 81, 3473, 0, 64},
	"104.hydro2d":  {67889, 66987, 194447, 27, 0, 93, 7997, 0, 66},
	"107.mgrid":    {98634, 88523, 170654, 13, 0, 57, 5292, 0, 44},
	"110.applu":    {19028, 25979, 158934, 12, 0, 64, 1681, 0, 52},
	"125.turb3d":   {43283, 28082, 338776, 39, 0, 160, 4831, 0, 121},
	"141.apsi":     {24725, 20655, 196152, 35, 0, 129, 4013, 0, 94},
	"145.fpppp":    {16296, 31063, 257578, 2, 0, 36, 381, 0, 34},
	"146.wave5":    {20868, 19409, 142067, 10, 0, 40, 1199, 0, 30},
}

// TestMachineTable pins fastsim's memoizing run on every bundled program
// (fastsimPins) exactly.
func TestMachineTable(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, exact counts: nothing for the race detector to find")
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			s := New(uarch.Default(), w.Prog, Options{Memoize: true, CacheCapBytes: 256 << 20})
			res := s.Run(0)
			st := s.Stats()
			got := fastsimPin{
				res.Insts, res.Cycles,
				st.TotalMemoBytes, st.Misses, st.CacheClears,
				st.Steps, st.Replays, st.KeyMisses,
				st.CacheEntries,
			}
			pin, ok := fastsimPins[name]
			if !ok {
				t.Fatalf("no pin for %s: %#v", name, got)
			}
			if got != pin {
				t.Errorf("counters %+v, pinned %+v", got, pin)
			}
		})
	}
}
