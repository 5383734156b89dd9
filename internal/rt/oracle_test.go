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

// TestSlowBlocksMatchReference is the block-level oracle for the slow
// simulator: every block of the three shipped descriptions, and of a
// hand-built program that exercises each form the decoder's peephole pass
// makes, runs alone from its decoded slow records and through the ir.Inst
// reference from the same random and boundary inputs. Both must take the
// same successor and leave the same vregs (those read later), globals,
// arrays, queues, extern argument lists and next-step arguments.
func TestSlowBlocksMatchReference(t *testing.T) {
	names := []string{"hand-built", "func.fac", "inorder.fac", "ooo.fac"}
	progs := []*ir.Program{peepholeProgram()}
	for i, src := range []string{facile.FuncSim(), facile.InOrderSim(), facile.OOOSim()} {
		sim, err := core.CompileSource(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[i+1], err)
		}
		progs = append(progs, sim.Prog)
	}
	for i, p := range progs {
		t.Run(names[i], func(t *testing.T) {
			n, diffs := rt.CheckSlowBlocks(p, 16, int64(i+1))
			for _, d := range diffs {
				t.Error(d)
			}
			if n != len(p.Blocks) {
				t.Errorf("checked %d of %d blocks", n, len(p.Blocks))
			}
			t.Logf("%s: %d blocks checked", names[i], n)
		})
	}
}

// peepholeProgram is main(x, y) over blocks whose records the peephole
// pass rewrites: constant shift counts of 65, -1 and 100, a constant queue
// field, a compare against a constant and one against y fused with their
// branches, and empty blocks to thread past, two of them a cycle.
func peepholeProgram() *ir.Program {
	bin := func(k token.Kind, d, a, b int32) ir.Inst {
		return ir.Inst{Op: ir.Bin, Sub: uint8(k), D: d, A: a, B: b}
	}
	konst := func(d int32, k int64) ir.Inst { return ir.Inst{Op: ir.Const, D: d, Imm: k, A: -1, B: -1} }
	store := func(g int64, a int32) ir.Inst { return ir.Inst{Op: ir.StoreG, Imm: g, D: -1, A: a, B: -1} }
	jmp := func(to int) *ir.Block {
		return &ir.Block{Term: ir.Inst{Op: ir.Jmp, D: -1, A: -1, B: -1}, Succ: [2]int{to}}
	}
	return &ir.Program{
		NumVReg: 16,
		Params:  []ir.ParamDecl{{Name: "x"}, {Name: "y"}},
		Globals: []ir.GlobalDecl{{Name: "g0"}, {Name: "g1"}, {Name: "g2"}, {Name: "g3"}},
		QueuesG: []ir.QueueDecl{{Name: "q0", Cap: 4, Width: 3}},
		Blocks: []*ir.Block{
			{ID: 0, Insts: []ir.Inst{
				konst(2, 65), bin(token.SHR, 3, 0, 2),
				konst(4, -1), bin(token.SHL, 5, 0, 4),
				konst(6, 100), bin(token.SHR, 7, 1, 6),
				konst(8, 2), {Op: ir.QOp, Sub: ir.QGet, D: 9, A: 1, B: 8},
				store(0, 3), store(1, 5), store(2, 7), store(3, 9),
				konst(10, 5), bin(token.LT, 11, 0, 10),
			}, Term: ir.Inst{Op: ir.Br, D: -1, A: 11, B: -1}, Succ: [2]int{1, 2}},
			{ID: 1, Insts: []ir.Inst{
				bin(token.GE, 12, 0, 1),
			}, Term: ir.Inst{Op: ir.Br, D: -1, A: 12, B: -1}, Succ: [2]int{3, 4}},
			jmp(5),
			{ID: 3, Insts: []ir.Inst{
				{Op: ir.SetArg, Imm: 1, D: -1, A: 0, B: -1},
			}, Term: ir.Inst{Op: ir.Ret, D: -1, A: -1, B: -1}},
			jmp(6),
			jmp(3),
			jmp(4),
		},
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
