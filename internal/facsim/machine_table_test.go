package facsim

import (
	"testing"

	"facile/internal/arch/ooo"
	"facile/internal/arch/uarch"
	wl "facile/internal/workloads"
)

// oooPin is fac-ooo's pinned behaviour on one bundled program at scale 1:
// the committed instructions and simulated cycles (exact), and the
// non-memoizing slow step's IR operations per step (an upper bound).
type oooPin struct {
	insts, cycles uint64
	opsPerStep    uint64
}

// oooPins is fac-ooo's machine over the 18 bundled programs at scale 1.
// insts and cycles change only with the timing model. opsPerStep is
// SlowInsts/SlowSteps of a Memoize:false run, rounded up: it may only go
// down, so a description or compiler change that makes the slow step do
// more work per modelled step fails here.
var oooPins = map[string]oooPin{
	"099.go":       {283418, 216664, 1842},
	"124.m88ksim":  {34037, 26001, 5427},
	"126.gcc":      {88552, 64926, 5001},
	"129.compress": {46719, 45447, 8323},
	"130.li":       {15801, 18019, 3262},
	"132.ijpeg":    {88622, 56188, 6870},
	"134.perl":     {41790, 29449, 4068},
	"147.vortex":   {42297, 41402, 2638},
	"101.tomcatv":  {58040, 71361, 36635},
	"102.swim":     {58273, 62023, 35085},
	"103.su2cor":   {48246, 26876, 10825},
	"104.hydro2d":  {67889, 76531, 14279},
	"107.mgrid":    {98634, 97464, 32968},
	"110.applu":    {19028, 27549, 27162},
	"125.turb3d":   {43283, 30630, 7962},
	"141.apsi":     {24725, 21983, 3979},
	"145.fpppp":    {16296, 33182, 219673},
	"146.wave5":    {20868, 20436, 29439},
}

// TestOOOMachineTable pins fac-ooo's (insts, cycles) and its slow-step IR
// budget on every bundled program, and logs the cycle difference against
// the hand-coded ooo model. The two simulate different machines today
// (cache timing at dispatch vs. issue, memory ordering), so the difference
// is reported, not asserted.
func TestOOOMachineTable(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, exact counts: nothing for the race detector to find")
	}
	for _, name := range wl.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := wlGet(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewOOO(w.Prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := in.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			ops := (st.SlowInsts + st.SlowSteps - 1) / st.SlowSteps
			ref := ooo.New(uarch.Default(), w.Prog).Run(0)
			t.Logf("%-13s insts %6d cycles %6d ops/step %5d | ooo cycles %6d, fac-ooo %+6d (%+.1f%%)",
				name, res.Insts, res.Cycles, ops, ref.Cycles,
				int64(res.Cycles)-int64(ref.Cycles),
				100*(float64(res.Cycles)-float64(ref.Cycles))/float64(ref.Cycles))
			pin, ok := oooPins[name]
			if !ok {
				t.Fatalf("no pin for %s: {%d, %d, %d}", name, res.Insts, res.Cycles, ops)
			}
			if res.Insts != pin.insts || res.Cycles != pin.cycles {
				t.Errorf("(insts, cycles) = (%d, %d), pinned (%d, %d)",
					res.Insts, res.Cycles, pin.insts, pin.cycles)
			}
			if ops > pin.opsPerStep {
				t.Errorf("slow step runs %d IR ops per step, budget %d", ops, pin.opsPerStep)
			}
		})
	}
}
