package rt_test

import (
	"testing"

	"facile/facile"
	"facile/internal/core"
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/rt"
)

// TestReplaySegmentsMatchReference is the block-level oracle for replay:
// every block of the three shipped descriptions, and of a hand-built
// program whose instructions read two or three placeholders each, runs
// through the decoded replay segment and through the ir.DynInst reference
// from the same random and boundary inputs, and must leave the same vregs,
// globals, arrays, queues and extern argument lists.
func TestReplaySegmentsMatchReference(t *testing.T) {
	names := []string{"hand-built", "func.fac", "inorder.fac", "ooo.fac"}
	progs := []*ir.Program{multiPhProgram()}
	for i, src := range []string{facile.FuncSim(), facile.InOrderSim(), facile.OOOSim()} {
		sim, err := core.CompileSource(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[i+1], err)
		}
		progs = append(progs, sim.Prog)
	}
	for i, p := range progs {
		t.Run(names[i], func(t *testing.T) {
			n, diffs := rt.CheckSegments(p, 16, int64(i+1))
			for _, d := range diffs {
				t.Error(d)
			}
			if n != len(p.Blocks) {
				t.Errorf("checked %d of %d blocks", n, len(p.Blocks))
			}
			dyn := 0
			for _, blk := range p.Blocks {
				if len(blk.Dyn) > 0 {
					dyn++
				}
			}
			t.Logf("%s: %d blocks checked, %d with a dynamic segment", names[i], n, dyn)
		})
	}
}

// multiPhProgram's blocks read placeholders in both A and B, in Args,
// constants and dynamic vregs side by side, against every kind of state.
func multiPhProgram() *ir.Program {
	ph := func(v int32) ir.Src { return ir.Src{Kind: ir.SrcPh, VReg: v} }
	vr := func(v int32) ir.Src { return ir.Src{Kind: ir.SrcVReg, VReg: v} }
	c := func(k int64) ir.Src { return ir.Src{Kind: ir.SrcConst, Const: k} }
	return &ir.Program{
		NumVReg: 8,
		Globals: []ir.GlobalDecl{{Name: "g0"}, {Name: "g1"}},
		Arrays:  []ir.ArrayDecl{{Name: "a0", Len: 16}},
		QueuesG: []ir.QueueDecl{{Name: "q0", Cap: 4, Width: 3}},
		Externs: []string{"f"},
		Blocks: []*ir.Block{
			{ID: 0, HasDyn: true, NPh: 7, Dyn: []ir.DynInst{
				{Op: ir.Bin, Sub: uint8(token.MINUS), D: 0, A: ph(6), B: ph(7)},
				{Op: ir.StoreA, Imm: 0, A: ph(6), B: ph(7)},
				{Op: ir.Bin, Sub: uint8(token.SHL), D: 1, A: vr(0), B: c(3)},
				{Op: ir.Bin, Sub: uint8(token.LT), D: 2, A: c(-5), B: ph(7)},
				{Op: ir.CallExt, Imm: 0, D: 3, Args: []ir.Src{ph(6), vr(1), c(9), ph(7)}},
			}},
			{ID: 1, HasDyn: true, NPh: 8, Dyn: []ir.DynInst{
				{Op: ir.QOp, Sub: ir.QPush, D: -1, Args: []ir.Src{ph(6), c(2), ph(7)}},
				{Op: ir.QOp, Sub: ir.QGet, D: 4, A: ph(6), B: ph(7)},
				{Op: ir.QOp, Sub: ir.QSet, D: -1, A: ph(6), B: ph(7), Args: []ir.Src{ph(5)}},
				{Op: ir.StoreG, Imm: 1, A: ph(5)},
				{Op: ir.QOp, Sub: ir.QFront, D: 5, A: vr(4)},
			}},
		},
	}
}
