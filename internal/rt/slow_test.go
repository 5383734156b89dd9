package rt

import (
	"math"
	"testing"

	"facile/internal/lang/ir"
	"facile/internal/lang/token"
)

// TestDecodedOpsMatchReference runs every Bin operator, every Un operator
// (an unknown one included) and Ext at several widths through the slow
// simulator's decoded interpreter, on boundary operands, and compares each
// result with the fast simulator's interpreter (execDyn, which evaluates
// through types.EvalBinary, evalUn and extend) on the same operands.
func TestDecodedOpsMatchReference(t *testing.T) {
	type opCase struct {
		name string
		op   ir.Op
		sub  uint8
		imm  int64
	}
	var cases []opCase
	for _, k := range []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.PIPE, token.CARET, token.SHL, token.SHR,
		token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE,
		token.LAND, token.LOR,
	} {
		cases = append(cases, opCase{"bin " + k.String(), ir.Bin, uint8(k), 0})
	}
	for _, k := range []token.Kind{token.MINUS, token.TILDE, token.NOT, token.PLUS} {
		cases = append(cases, opCase{"un " + k.String(), ir.Un, uint8(k), 0})
	}
	for _, bits := range []int64{0, 1, 8, 15, 32, 63, 64, 65} {
		cases = append(cases,
			opCase{"zext", ir.Ext, 0, bits},
			opCase{"sext", ir.Ext, 1, bits})
	}

	// main(x, y): one block computing every case into its own vreg.
	blk := &ir.Block{Term: ir.Inst{Op: ir.Ret}}
	for i, c := range cases {
		blk.Insts = append(blk.Insts, ir.Inst{Op: c.op, Sub: c.sub, Imm: c.imm, D: int32(2 + i), A: 0, B: 1})
	}
	p := &ir.Program{
		Blocks:  []*ir.Block{blk},
		NumVReg: 2 + len(cases),
		Params:  []ir.ParamDecl{{Name: "x"}, {Name: "y"}},
	}
	m := New(p, nil, Options{})

	operands := []int64{
		0, 1, -1, 2, -2, 7, -7, 31, 32, 63, 64, 65, -63, -64,
		math.MaxInt64, -math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32,
		0x5555_5555_5555_5555, -0x5555_5555_5555_5556,
	}
	vreg := func(r int32) ir.Src { return ir.Src{Kind: ir.SrcVReg, VReg: r} }
	for _, x := range operands {
		for _, y := range operands {
			copy(m.argI, []int64{x, y})
			if err := m.runStepSlow(nil, nil); err != nil {
				t.Fatal(err)
			}
			got := append([]int64(nil), m.vregs[2:2+len(cases)]...)
			for i, c := range cases {
				m.vregs[0], m.vregs[1] = x, y
				d := int32(2 + i)
				m.execDyn(&ir.DynInst{Op: c.op, Sub: c.sub, Imm: c.imm, D: d, A: vreg(0), B: vreg(1)}, nil, new(int))
				if want := m.vregs[d]; got[i] != want {
					t.Errorf("%s (imm %d) on (%d, %d): decoded %d, reference %d", c.name, c.imm, x, y, got[i], want)
				}
			}
		}
	}
}

// TestPlainRunBuildsNoKeys: without memoization the machine never keeps a
// step key, yet reports the key a memoizing twin holds at the same step.
func TestPlainRunBuildsNoKeys(t *testing.T) {
	src := func() *ir.Program {
		// main(q: queue(2, 1), n): push n, pop when full, next n = n + 1.
		return &ir.Program{
			NumVReg: 4,
			Params:  []ir.ParamDecl{{Name: "q", IsQueue: true, Queue: ir.QueueDecl{Cap: 2, Width: 1}}, {Name: "n"}},
			Blocks: []*ir.Block{
				{Insts: []ir.Inst{
					{Op: ir.QOp, Sub: ir.QFull, QID: ^int32(0), D: 1},
				}, Term: ir.Inst{Op: ir.Br, A: 1}, Succ: [2]int{1, 2}},
				{Insts: []ir.Inst{
					{Op: ir.QOp, Sub: ir.QPop, QID: ^int32(0), D: -1},
				}, Term: ir.Inst{Op: ir.Jmp}, Succ: [2]int{2}},
				{Insts: []ir.Inst{
					{Op: ir.QOp, Sub: ir.QPush, QID: ^int32(0), D: -1, Args: []int32{0}},
					{Op: ir.Const, D: 2, Imm: 1},
					{Op: ir.Bin, Sub: uint8(token.PLUS), D: 3, A: 0, B: 2},
					{Op: ir.SetArg, Imm: 0, A: 3},
				}, Term: ir.Inst{Op: ir.Ret}},
			},
		}
	}
	var keys [2]string
	for i, memo := range []bool{false, true} {
		m := New(src(), nil, Options{Memoize: memo})
		if err := m.Run(5); err != nil {
			t.Fatal(err)
		}
		if !memo && m.curKey != "" {
			t.Errorf("non-memoizing machine kept a step key %q", m.curKey)
		}
		keys[i], _ = m.DebugState()
	}
	if want := buildKey([]int64{5}, []*Queue{{width: 1, cap: 2, data: []int64{3, 4}}}); keys[0] != want || keys[1] != want {
		t.Errorf("keys after 5 steps: plain %q, memo %q, want %q", keys[0], keys[1], want)
	}
}
