package facsim

import (
	"testing"

	"facile/internal/arch/ooo"
	"facile/internal/arch/uarch"
	"facile/internal/isa/loader"
	"facile/internal/rt"
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
// is reported, not asserted. It also pins the memoizing machine's counters
// (memoPins) for fac-ooo on every program and fac-inorder on two.
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
			checkMemoPin(t, KindOOO+"/"+name, w, NewOOO)
		})
	}
	for _, name := range []string{"130.li", "129.compress"} {
		t.Run(KindInOrder+"/"+name, func(t *testing.T) {
			w, err := wlGet(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkMemoPin(t, KindInOrder+"/"+name, w, NewInOrder)
		})
	}
}

// memoPin is a memoizing machine's exact counters on one bundled program at
// scale 1. Replay must be observationally identical however it dispatches,
// so these change only with the description, the compiler or the recorder.
type memoPin struct {
	slowSteps, replays, misses, keyMisses, fastOps, memoBytes uint64
}

func memoPinOf(st rt.Stats) memoPin {
	return memoPin{st.SlowSteps, st.Replays, st.Misses, st.KeyMisses, st.FastOps, st.TotalMemoBytes}
}

// memoPins holds fac-ooo's Memoize:true counters on every bundled program
// and fac-inorder's on two, keyed "engine/program".
var memoPins = map[string]memoPin{
	"fac-ooo/099.go":           {343, 90662, 75, 268, 3662309, 768480},
	"fac-ooo/124.m88ksim":      {76, 5438, 7, 69, 434511, 379860},
	"fac-ooo/126.gcc":          {240, 15812, 34, 206, 1019498, 936332},
	"fac-ooo/129.compress":     {37, 5955, 10, 27, 616884, 142574},
	"fac-ooo/130.li":           {44, 3688, 6, 38, 220331, 225622},
	"fac-ooo/132.ijpeg":        {207, 10102, 51, 156, 1133619, 1033224},
	"fac-ooo/134.perl":         {190, 7044, 36, 154, 529166, 623781},
	"fac-ooo/147.vortex":       {109, 10995, 29, 80, 612880, 507740},
	"fac-ooo/101.tomcatv":      {47, 3896, 5, 42, 818760, 314518},
	"fac-ooo/102.swim":         {42, 3266, 5, 37, 798177, 328120},
	"fac-ooo/103.su2cor":       {90, 3464, 12, 78, 598648, 582184},
	"fac-ooo/104.hydro2d":      {97, 7993, 23, 74, 919563, 468900},
	"fac-ooo/107.mgrid":        {62, 5287, 10, 52, 1295074, 473555},
	"fac-ooo/110.applu":        {64, 1681, 9, 55, 268782, 416780},
	"fac-ooo/125.turb3d":       {173, 4818, 30, 143, 564405, 995449},
	"fac-ooo/141.apsi":         {134, 4008, 32, 102, 321639, 471249},
	"fac-ooo/145.fpppp":        {35, 381, 1, 34, 234838, 555208},
	"fac-ooo/146.wave5":        {43, 1196, 9, 34, 298947, 435194},
	"fac-inorder/130.li":       {80, 15721, 15, 65, 287674, 46204},
	"fac-inorder/129.compress": {69, 46650, 9, 60, 842526, 40010},
}

// checkMemoPin runs a memoizing machine built by mk on w and compares its
// counters with memoPins[key].
func checkMemoPin(t *testing.T, key string, w *wl.Workload, mk func(*loader.Program, Options) (*Instance, error)) {
	t.Helper()
	in, err := mk(w.Prog, Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	got := memoPinOf(res.Stats)
	pin, ok := memoPins[key]
	if !ok {
		t.Fatalf("no memo pin for %s: %#v", key, got)
	}
	if got != pin {
		t.Errorf("%s memoizing counters %+v, pinned %+v", key, got, pin)
	}
}
