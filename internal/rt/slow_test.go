package rt

import (
	"math"
	"slices"
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
	checkPeepholeForms(t, bins, operands)
}

// checkPeepholeForms runs the codes only the slow loop has, the peephole
// pass's forms, on the boundary operands and on shift counts of 64 and
// more and negative ones: for each constant k, a static block computes
// x <op> k for every Bin operator from single-use constants, and field k
// of a queue entry, and then static blocks branch on x <cmp> k and on
// x <cmp> y for every compare, each compare fused with its branch. Every
// Bin result must equal types.EvalBinary's, every branch must go where
// sBr would on that value, every new code must occur, and every fused
// branch must take both ways.
func checkPeepholeForms(t *testing.T, bins []token.Kind, operands []int64) {
	t.Helper()
	cmps := []token.Kind{token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE}
	konst := func(d int32, k int64) ir.Inst { return ir.Inst{Op: ir.Const, D: d, Imm: k, A: -1, B: -1} }
	// main(x, y): block 0 holds the Bins and the QGet; block 1+3i branches
	// on compare i and blocks 2+3i and 3+3i store 1 or 2 to global i and
	// go on; the last block returns.
	build := func(k int64) *ir.Program {
		nv := int32(2)
		vreg := func() int32 { nv++; return nv - 1 }
		var b0 []ir.Inst
		for _, op := range bins {
			c, d := vreg(), vreg()
			b0 = append(b0, konst(c, k), ir.Inst{Op: ir.Bin, Sub: uint8(op), D: d, A: 0, B: c})
		}
		c := vreg()
		b0 = append(b0, konst(c, k), ir.Inst{Op: ir.QOp, Sub: ir.QGet, D: vreg(), A: 0, B: c})
		blocks := []*ir.Block{{Insts: b0, Term: ir.Inst{Op: ir.Jmp, D: -1, A: -1, B: -1}, Succ: [2]int{1}}}
		for i, op := range append(cmps, cmps...) {
			var insts []ir.Inst
			y := int32(1) // the second half compares x with y
			if i < len(cmps) {
				y = vreg()
				insts = append(insts, konst(y, k))
			}
			r := vreg()
			insts = append(insts, ir.Inst{Op: ir.Bin, Sub: uint8(op), D: r, A: 0, B: y})
			next := len(blocks) + 3
			blocks = append(blocks, &ir.Block{Insts: insts, Term: ir.Inst{Op: ir.Br, D: -1, A: r, B: -1},
				Succ: [2]int{len(blocks) + 1, len(blocks) + 2}})
			for _, v := range []int64{1, 2} {
				w := vreg()
				blocks = append(blocks, &ir.Block{
					Insts: []ir.Inst{konst(w, v), {Op: ir.StoreG, Imm: int64(i), D: -1, A: w, B: -1}},
					Term:  ir.Inst{Op: ir.Jmp, D: -1, A: -1, B: -1}, Succ: [2]int{next}})
			}
		}
		blocks = append(blocks, &ir.Block{Term: ir.Inst{Op: ir.Ret, D: -1, A: -1, B: -1}})
		p := &ir.Program{
			Blocks:  blocks,
			NumVReg: int(nv),
			Params:  []ir.ParamDecl{{Name: "x"}, {Name: "y"}},
			QueuesG: []ir.QueueDecl{{Name: "q0", Cap: 4, Width: 3}},
		}
		for range 2 * len(cmps) {
			p.Globals = append(p.Globals, ir.GlobalDecl{Name: "g"})
		}
		return p
	}
	consts := append(slices.Clone(operands), 100, 127, 128, 1<<32, -65, -100, -128, -(1 << 32))
	seen := map[slowCode]bool{}
	ways := map[slowCode][2]bool{}
	queue := []int64{10, 11, 12, 13, 14, 15, 16, 17, 18}
	for _, k := range consts {
		p := build(k)
		m := New(p, nil, Options{})
		for pc := int32(0); pc < m.slow.dyn[0]; pc++ {
			seen[m.slow.ops[pc].code] = true
		}
		for _, x := range operands {
			m.queuesG[0].data = append(m.queuesG[0].data[:0], queue...)
			copy(m.argI, []int64{x, k})
			if err := m.runStepSlow(nil, nil); err != nil {
				t.Fatal(err)
			}
			for i, op := range bins {
				if got, want := m.vregs[3+2*i], types.EvalBinary(op, x, k); got != want {
					t.Errorf("bin %s on (%d, %d): decoded %d, EvalBinary %d", op, x, k, got, want)
				}
			}
			if got, want := m.vregs[3+2*len(bins)], m.queuesG[0].Get(x, k); got != want {
				t.Errorf("queue get (%d, %d): decoded %d, Get %d", x, k, got, want)
			}
			for i, op := range append(cmps, cmps...) {
				taken := types.EvalBinary(op, x, k) != 0 // sBr's test
				want := int64(2)
				if taken {
					want = 1
				}
				if got := m.globals[i]; got != want {
					t.Errorf("branch on %d %s %d (form %d): stored %d, want %d", x, op, k, i/len(cmps), got, want)
				}
				code := sBrEq + binCodes[op] - sEq
				if i < len(cmps) {
					code = sBrEqI + binCodes[op] - sEq
				}
				w := ways[code]
				w[bit(taken)] = true
				ways[code] = w
			}
		}
	}
	for c := sAddI; c <= sBrGeI; c++ {
		if !seen[c] {
			t.Errorf("no case decodes to code %d", c)
		}
		if c >= sBrEq && ways[c] != [2]bool{true, true} {
			t.Errorf("fused branch code %d went only one way: %v", c, ways[c])
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

// TestPeepholeKeepsObservedValues: the peephole pass folds only what no one
// else reads. A constant that a dynamic instruction takes as a placeholder
// and a constant written to one of main's parameters keep their records;
// a compare in a dynamic block stays apart from its branch, though its
// constant operand folds.
func TestPeepholeKeepsObservedValues(t *testing.T) {
	k := func(d int32, v int64) ir.Inst { return ir.Inst{Op: ir.Const, D: d, Imm: v, A: -1, B: -1} }
	add := func(d, a, b int32) ir.Inst { return ir.Inst{Op: ir.Bin, Sub: uint8(token.PLUS), D: d, A: a, B: b} }
	p := &ir.Program{
		NumVReg: 9,
		Params:  []ir.ParamDecl{{Name: "x"}, {Name: "y"}},
		Globals: []ir.GlobalDecl{{Name: "g0"}},
		Blocks: []*ir.Block{
			{Insts: []ir.Inst{
				k(2, 7), add(3, 1, 2), // vreg 2 is block 1's placeholder
				k(0, 9), add(4, 1, 0), // vreg 0 is x
			}, Term: ir.Inst{Op: ir.Jmp, D: -1, A: -1, B: -1}, Succ: [2]int{1}},
			{HasDyn: true, NPh: 1, Insts: []ir.Inst{
				{Op: ir.StoreG, Imm: 0, D: -1, A: 2, B: -1, BT: ir.BTDynamic},
				k(7, 1),
				{Op: ir.Bin, Sub: uint8(token.LT), D: 8, A: 3, B: 7},
			}, Dyn: []ir.DynInst{{Op: ir.StoreG, Imm: 0, D: -1, A: ir.Src{Kind: ir.SrcPh, VReg: 2}}},
				Term: ir.Inst{Op: ir.Br, D: -1, A: 8, B: -1}, Succ: [2]int{2, 2}},
			{Term: ir.Inst{Op: ir.Ret, D: -1, A: -1, B: -1}},
		},
	}
	sp := decodeProgram(p)
	var got []slowCode
	for _, op := range sp.ops[:sp.dyn[0]] {
		got = append(got, op.code)
	}
	want := []slowCode{
		sBlock, sConst, sAdd, sConst, sAdd, sJmp,
		sBlock, sDyn, sStoreG, sLtI, sBr,
		sBlock, sRet,
	}
	if !slices.Equal(got, want) {
		t.Errorf("decoded codes %v, want %v", got, want)
	}
}
