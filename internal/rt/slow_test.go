package rt

import (
	"math"
	"testing"

	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// TestDecodedOpsMatchReference runs one instruction per operation code —
// every Bin operator, every Un operator and an unknown one, Ext at several widths, and every memory, extern and queue operation
// — on boundary operands three ways: as run-time static instructions
// through the slow loop, as a replay segment through runDyn, and through
// the ir.DynInst reference execDyn. All three must leave the same vregs,
// globals, array, queue and extern arguments, each Bin result must equal
// types.EvalBinary's, and the segment must hold every code runDyn handles.
func TestDecodedOpsMatchReference(t *testing.T) {
	var cases []ir.Inst
	add := func(in ir.Inst) {
		in.D = int32(2 + len(cases))
		cases = append(cases, in)
	}
	bins := []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.PIPE, token.CARET, token.SHL, token.SHR,
		token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE,
		token.LAND, token.LOR,
	}
	for _, k := range bins {
		add(ir.Inst{Op: ir.Bin, Sub: uint8(k), A: 0, B: 1})
	}
	for _, k := range []token.Kind{token.MINUS, token.TILDE, token.NOT, token.PLUS} {
		add(ir.Inst{Op: ir.Un, Sub: uint8(k), A: 0})
	}
	for _, bits := range []int64{0, 1, 8, 15, 32, 63, 64, 65} {
		add(ir.Inst{Op: ir.Ext, Imm: bits, A: 0})
		add(ir.Inst{Op: ir.Ext, Sub: 1, Imm: bits, A: 0})
	}
	for _, in := range []ir.Inst{
		{Op: ir.Const, Imm: -12345},
		{Op: ir.Mov, A: 1},
		{Op: ir.LoadG, Imm: 0},
		{Op: ir.StoreG, Imm: 1, A: 0},
		{Op: ir.LoadA, Imm: 0, A: 0},
		{Op: ir.StoreA, Imm: 0, A: 1, B: 0},
		{Op: ir.LoadA, Imm: 0, A: 1},
		{Op: ir.Fetch, A: 0},
		{Op: ir.CallExt, Imm: 0, Args: []int32{0, 1}},
		{Op: ir.QOp, Sub: ir.QSize},
		{Op: ir.QOp, Sub: ir.QFull},
		{Op: ir.QOp, Sub: ir.QPush, Args: []int32{1, 0}},
		{Op: ir.QOp, Sub: ir.QGet, A: 0, B: 1},
		{Op: ir.QOp, Sub: ir.QSet, A: 0, B: 1, Args: []int32{1}},
		{Op: ir.QOp, Sub: ir.QFront, A: 0},
		{Op: ir.QOp, Sub: ir.QPop},
		{Op: ir.QOp, Sub: ir.QClear},
	} {
		add(in)
	}
	// main(x, y): one block holding every case as a run-time static
	// instruction and, as its dynamic segment, as a dynamic one.
	vreg := func(r int32) ir.Src { return ir.Src{Kind: ir.SrcVReg, VReg: r} }
	blk := &ir.Block{Insts: cases, HasDyn: true, Term: ir.Inst{Op: ir.Ret}}
	for _, in := range cases {
		di := ir.DynInst{Op: in.Op, Sub: in.Sub, D: in.D, Imm: in.Imm, A: vreg(in.A), B: vreg(in.B)}
		if in.Op == ir.Const {
			// The compiler's form of a dynamic constant.
			di = ir.DynInst{Op: ir.Mov, D: in.D, A: ir.Src{Kind: ir.SrcConst, Const: in.Imm}}
		}
		for _, a := range in.Args {
			di.Args = append(di.Args, vreg(a))
		}
		blk.Dyn = append(blk.Dyn, di)
	}
	p := &ir.Program{
		Blocks:  []*ir.Block{blk},
		NumVReg: 2 + len(cases),
		Params:  []ir.ParamDecl{{Name: "x"}, {Name: "y"}},
		Globals: []ir.GlobalDecl{{Name: "g0", Init: 7}, {Name: "g1"}},
		Arrays:  []ir.ArrayDecl{{Name: "a0", Len: 8, Init: 3}},
		QueuesG: []ir.QueueDecl{{Name: "q0", Cap: 3, Width: 2}},
		Externs: []string{"f"},
	}
	var scalls, dcalls, rcalls [][]int64
	slow, dec, ref := oracleMachine(p, &scalls), oracleMachine(p, &dcalls), oracleMachine(p, &rcalls)

	seen := map[slowCode]bool{}
	for pc := dec.slow.dyn[0]; dec.slow.ops[pc].code != sEnd; pc++ {
		seen[dec.slow.ops[pc].code] = true
	}
	for c := sConst; c <= sQClear; c++ {
		// sBin carries an operator types.EvalBinary rejects by panicking,
		// the same call in both loops.
		if !seen[c] && c != sBin {
			t.Errorf("no case decodes to code %d", c)
		}
	}

	operands := []int64{
		0, 1, -1, 2, -2, 7, -7, 31, 32, 63, 64, 65, -63, -64,
		math.MaxInt64, -math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32,
		0x5555_5555_5555_5555, -0x5555_5555_5555_5556,
	}
	st := &oracleState{
		vregs:   make([]int64, p.NumVReg),
		globals: []int64{7, 0},
		arrays:  [][]int64{{3, 1, 4, 1, 5, 9, 2, 6}},
		queues:  [][]int64{{10, 11, 12, 13}},
	}
	for _, x := range operands {
		for _, y := range operands {
			for _, m := range []*Machine{slow, dec, ref} {
				m.loadState(st)
			}
			scalls, dcalls, rcalls = scalls[:0], dcalls[:0], rcalls[:0]
			copy(slow.argI, []int64{x, y})
			if err := slow.runStepSlow(nil, nil); err != nil {
				t.Fatal(err)
			}
			dec.vregs[0], dec.vregs[1] = x, y
			dec.runDyn(dec.slow.dyn[0])
			ref.vregs[0], ref.vregs[1] = x, y
			ph := 0
			for i := range blk.Dyn {
				ref.execDyn(&blk.Dyn[i], nil, &ph)
			}
			if d := diffState(dec, ref, dcalls, rcalls); d != "" {
				t.Errorf("on (%d, %d), runDyn and execDyn differ: %s", x, y, d)
			}
			if d := diffState(slow, dec, scalls, dcalls); d != "" {
				t.Errorf("on (%d, %d), the slow loop and runDyn differ: %s", x, y, d)
			}
			for i, k := range bins {
				if got, want := dec.vregs[2+i], types.EvalBinary(k, x, y); got != want {
					t.Errorf("bin %s on (%d, %d): decoded %d, EvalBinary %d", k, x, y, got, want)
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

// TestPlaceholdersNumberedInAppendOrder: a placeholder in a field its
// operation never reads (LoadG's A, QSet's second value) still takes a
// window slot, in the order appendPh records it, so every later
// placeholder reads its own recorded value.
func TestPlaceholdersNumberedInAppendOrder(t *testing.T) {
	ph := func(v int32) ir.Src { return ir.Src{Kind: ir.SrcPh, VReg: v} }
	blk := &ir.Block{HasDyn: true, NPh: 7, Term: ir.Inst{Op: ir.Ret}, Dyn: []ir.DynInst{
		{Op: ir.LoadG, D: 0, Imm: 0, A: ph(10)},
		{Op: ir.Mov, D: 1, A: ph(11)},
		{Op: ir.QOp, Sub: ir.QSet, D: -1, A: ph(12), B: ph(13), Args: []ir.Src{ph(14), ph(15)}},
		{Op: ir.Mov, D: 2, A: ph(16)},
	}}
	p := &ir.Program{
		Blocks:  []*ir.Block{blk},
		NumVReg: 17,
		Globals: []ir.GlobalDecl{{Name: "g0", Init: 42}},
		QueuesG: []ir.QueueDecl{{Name: "q0", Cap: 2, Width: 1}},
	}
	m := New(p, nil, Options{})
	// The recorder's view: run-time static values in vregs 10-16.
	copy(m.vregs[10:], []int64{555, 111, 1, 0, 114, 115, 116})
	var data []int64
	for i := range blk.Dyn {
		data = appendPh(data, &blk.Dyn[i], m.vregs)
	}
	m.queuesG[0].data = []int64{7, 8}
	m.fillWindow(data)
	m.runDyn(m.slow.dyn[0])
	if got := m.vregs[:3]; got[0] != 42 || got[1] != 111 || got[2] != 116 {
		t.Errorf("vregs 0-2 = %v, want [42 111 116]", got)
	}
	if q := m.queuesG[0].data; q[0] != 7 || q[1] != 114 {
		t.Errorf("queue = %v, want [7 114]", q)
	}
}
