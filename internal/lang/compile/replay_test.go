package compile

import (
	"testing"

	"facile/internal/lang/ir"
)

// pureBlock builds a DTNone block whose NPh matches the placeholder count
// the recorder would log for the given instructions.
func pureBlock(id, nph int, dyn ...ir.DynInst) *ir.Block {
	return &ir.Block{ID: id, HasDyn: true, Dyn: dyn, NPh: nph,
		Term: ir.Inst{Op: ir.Ret}, Succ: [2]int{-1, -1}}
}

func noDyn(id int, succ ...int) *ir.Block {
	b := &ir.Block{ID: id, Succ: [2]int{-1, -1}}
	copy(b.Succ[:], succ)
	return b
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		blk  *ir.Block
		want ir.ReplayClass
	}{
		{noDyn(0), ir.ReplayNoDyn},
		{&ir.Block{HasDyn: true, Succ: [2]int{-1, -1}}, ir.ReplayPure},
		{&ir.Block{HasDyn: true, DynTerm: ir.DTBr, Succ: [2]int{-1, -1}}, ir.ReplayFork},
		{&ir.Block{HasDyn: true, DynTerm: ir.DTSetArg, Succ: [2]int{-1, -1}}, ir.ReplayFork},
		{&ir.Block{HasDyn: true, DynTerm: ir.DTPin, Succ: [2]int{-1, -1}}, ir.ReplayFork},
		{&ir.Block{HasDyn: true, DynTerm: ir.DTRet, Succ: [2]int{-1, -1}}, ir.ReplayRet},
	}
	for i, c := range cases {
		if got := classOf(c.blk); got != c.want {
			t.Errorf("case %d: classOf = %v, want %v", i, got, c.want)
		}
	}
}

func TestDynSuccessorsSkipStaticBlocks(t *testing.T) {
	// 0(dyn) -> 1(static) -> 2(static) -> 3(dyn); 1 -> 4(dyn)
	p := &ir.Program{Blocks: []*ir.Block{
		pureBlock(0, 0, ir.DynInst{Op: ir.LoadG}),
		noDyn(1, 2, 4),
		noDyn(2, 3),
		pureBlock(3, 0, ir.DynInst{Op: ir.LoadG}),
		pureBlock(4, 0, ir.DynInst{Op: ir.LoadG}),
	}}
	p.Blocks[0].Succ[0] = 1
	got := dynSuccessors(p, 0)
	want := map[int]bool{3: true, 4: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Errorf("dynSuccessors = %v, want {3, 4}", got)
	}
}

func TestHotBlocks(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 (cycle), 0 -> 3 (self-loop), 0 -> 4 (acyclic)
	p := &ir.Program{Blocks: []*ir.Block{
		noDyn(0, 1, 3),
		noDyn(1, 2),
		noDyn(2, 1, 4),
		noDyn(3, 3),
		noDyn(4),
	}}
	hot := hotBlocks(p)
	want := []bool{false, true, true, true, false}
	for i := range want {
		if hot[i] != want[i] {
			t.Errorf("hot[%d] = %v, want %v", i, hot[i], want[i])
		}
	}
}

func TestMaxRunStraightLineAndFork(t *testing.T) {
	// 0(pure) -> 1(pure) -> 2(fork) -> 3(pure): the fork caps the run at
	// two, and the block past it starts a fresh run of one.
	fork := &ir.Block{ID: 2, HasDyn: true, DynTerm: ir.DTBr,
		Dyn: []ir.DynInst{{Op: ir.LoadG}}, Succ: [2]int{3, -1}}
	p := &ir.Program{Blocks: []*ir.Block{
		pureBlock(0, 0, ir.DynInst{Op: ir.LoadG}),
		pureBlock(1, 0, ir.DynInst{Op: ir.LoadG}),
		fork,
		pureBlock(3, 0, ir.DynInst{Op: ir.LoadG}),
	}}
	p.Blocks[0].Succ[0] = 1
	p.Blocks[1].Succ[0] = 2
	plan, ev := buildReplayPlan(p)
	wantRuns := []int{2, 1, 0, 1}
	for i, w := range wantRuns {
		if got := plan.Blocks[i].MaxRun; got != w {
			t.Errorf("MaxRun[%d] = %d, want %d", i, got, w)
		}
	}
	if plan.DynBlocks != 4 || plan.FusableBlocks != 3 || plan.DynOps != 4 || plan.FusableOps != 3 {
		t.Errorf("aggregates %+v, want 4/3 blocks, 4/3 ops", plan)
	}
	if got := ev.Blocks[1].Succ; len(got) != 1 || got[0] != 2 {
		t.Errorf("evidence succ for block 1 = %v, want [2]", got)
	}
}

func TestMaxRunCycleCapped(t *testing.T) {
	// A fusable self-loop: the engine's length cap, not the graph, bounds
	// the superinstruction.
	b := pureBlock(0, 0, ir.DynInst{Op: ir.LoadG})
	b.Succ[0] = 0
	plan, ev := buildReplayPlan(&ir.Program{Blocks: []*ir.Block{b}})
	if got := plan.Blocks[0].MaxRun; got != ir.MaxFuseLen {
		t.Errorf("MaxRun = %d, want the fuse cap %d", got, ir.MaxFuseLen)
	}
	if !ev.Blocks[0].Hot {
		t.Error("self-loop block not marked hot")
	}
}
