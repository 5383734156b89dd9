package rt

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// This file is the slow/complete simulator and the decoder both simulators
// share. Machine construction decodes the program once into one array of
// dense slowOp records: every block's IR instructions, which runStepSlow
// interprets with one flat switch, jumping between blocks by record index,
// and after them every block's dynamic segment, which the fast simulator
// runs (replay.go).
//
// The decoded form folds into a record's code what the interpreter would
// otherwise branch on per instruction: the ir.Op, the operator of Bin and
// Un, the width and signedness of Ext, the sub-operation of QOp, and the
// instruction's binding time. Binding time becomes marker records around
// the operation they govern:
//
//   - a run-time static instruction is its operation alone;
//   - a write-through (BTStaticWT) instruction is its operation followed by
//     sWT, which hands the just-computed placeholders to the step sink;
//   - a dynamic instruction is sDyn followed by its operation: sDyn hands
//     the placeholders to the sink before the operation runs, or, while a
//     recovery cursor is not yet live, skips it (the failed replay already
//     performed it);
//   - dynamic SetArg and Pin, the dynamic-result tests, are sSetArgDyn and
//     sPinDyn.
//
// A marker's imm is the instruction's index in its block's dynamic
// segment, fixed at decode time. Each block opens with an sBlock record,
// which charges the block's IR instructions to the step budget and
// SlowInsts (records are not counted) and announces a dynamic block to the
// sink, and closes with its terminator, whose targets are record indices.
//
// The slow blocks' records then pass through a peephole pass (see
// decodeProgram): a constant read once by the next Bin or QGet becomes its
// immediate, a static block's compare read once by its branch fuses with
// it, and edges skip empty static blocks. Every charge, announcement,
// recovery-cursor call and recorded value stays as it was; only the number
// of records dispatched falls.
//
// A replay segment is a block's ir.DynInst list decoded by the same decode
// into operation records and ended by sEnd. Its operands are all vregs: a
// dynamic operand is its own vreg; a placeholder is a slot of the
// placeholder window, numbered in the order appendPh records placeholders,
// which the replayer fills from the node's data before running the
// segment; a constant is a vreg of the constant pool, set once when the
// machine is built. The machine's vregs are therefore the program's, one
// junk vreg (see decodeProgram), the window, then the pool.

// slowCode is a decoded operation.
type slowCode uint8

const (
	sNop   slowCode = iota // an op the interpreter ignores
	sConst                 // d = imm
	sMov                   // d = a
	// Bin, one code per operator, with types.EvalBinary's semantics.
	sAdd
	sSub
	sMul
	sDiv // division by zero gives 0
	sRem // remainder by zero gives 0
	sAnd
	sOr
	sXor
	sShl // shift count taken mod 64
	sShr // arithmetic; shift count taken mod 64
	sEq
	sNe
	sLt
	sLe
	sGt
	sGe
	sLAnd
	sLOr
	sBin // any other operator: d = types.EvalBinary(imm, a, b)
	// Un and Ext.
	sNeg  // d = -a
	sCpl  // d = ^a
	sNot  // d = !a
	sSext // d = a sign-extended from 64-imm bits
	sZext // d = a zero-extended from 64-imm bits
	// Memory. imm is the global, array or extern index.
	sLoadG
	sStoreG
	sLoadA
	sStoreA
	sFetch
	sCall // d = externs[imm](args[a : a+b]...)
	// Queues. imm is the queue ID; a result-less op writes 0 to d.
	sQSize
	sQPush // values args[a : a+b]
	sQPop
	sQGet
	sQSet // imm packs the queue ID (low 32 bits) and the value vreg (high)
	sQFront
	sQFull
	sQClear
	// Main's next-step arguments and ?pin, run-time static.
	sSetArg // argBuf[imm] = a
	sPin    // d = a
	// Binding-time markers (see the file comment).
	sDyn
	sWT
	sSetArgDyn // argBuf[imm] = a, a dynamic-result test
	sPinDyn    // d = a, a dynamic-result test
	// Block structure. A branch's targets d (taken) and b (not taken) and a
	// jump's target imm are record indices. A jump's b and a branch's imm
	// are 1 when the block is dynamic: finishing it advances a recovery
	// cursor.
	sBlock // block a opens: imm IR instructions, b = 1 if it is dynamic
	sJmp
	sBr    // on a != 0
	sBrDyn // on a != 0, a dynamic-result test
	sRet
	sEnd // a replay segment ends
	// The peephole forms (see decodeProgram), which only the slow loop runs. A
	// Bin whose second operand is the constant imm, one code per Bin code
	// in sAdd's order: d = a <op> imm, a shift's imm already taken mod 64.
	sAddI
	sSubI
	sMulI
	sDivI
	sRemI
	sAndI
	sOrI
	sXorI
	sShlI
	sShrI
	sEqI
	sNeI
	sLtI
	sLeI
	sGtI
	sGeI
	sLAndI
	sLOrI
	sQGetI // d = field b (a constant) of entry a of queue imm
	// A compare fused with the static branch that reads it, one code per
	// compare in sEq's order: on a <op> b go to record d, else to record
	// imm...
	sBrEq
	sBrNe
	sBrLt
	sBrLe
	sBrGt
	sBrGe
	// ...and on a <op> imm go to record d, else to record b.
	sBrEqI
	sBrNeI
	sBrLtI
	sBrLeI
	sBrGtI
	sBrGeI
)

// slowOp is one decoded record: 24 bytes.
type slowOp struct {
	code    slowCode
	d, a, b int32
	imm     int64
}

// binCodes maps Bin operators to their codes.
var binCodes = map[token.Kind]slowCode{
	token.PLUS: sAdd, token.MINUS: sSub, token.STAR: sMul,
	token.SLASH: sDiv, token.PERCENT: sRem,
	token.AMP: sAnd, token.PIPE: sOr, token.CARET: sXor,
	token.SHL: sShl, token.SHR: sShr,
	token.EQ: sEq, token.NE: sNe, token.LT: sLt, token.LE: sLe,
	token.GT: sGt, token.GE: sGe,
	token.LAND: sLAnd, token.LOR: sLOr,
}

// slowProgram is a program's decoded form: the records of every block and
// of every replay segment, the index of the entry block's sBlock record,
// the argument lists of CallExt and QPush, flattened, the first record of
// each block's replay segment, the first vreg of the placeholder window,
// and the constant pool's values, held by the vregs from constBase on.
type slowProgram struct {
	ops       []slowOp
	entry     int
	args      []int32
	dyn       []int32
	window    int32
	constBase int32
	consts    []int64
}

// decodeProgram decodes p. A QOp whose result is unused (d < 0) writes to
// the junk vreg p.NumVReg, which no instruction reads.
//
// A peephole pass over the slow blocks, made as they are decoded, takes out
// records whose effect another record can carry:
//
//   - a single-use constant that the next instruction, a static Bin or
//     QGet, reads as its second operand becomes that record's immediate
//     (immOperand, withImm);
//   - a static block's single-use compare that its static branch reads
//     becomes one compare-and-branch record, which also takes in the
//     compare's constant second operand (fusesBranch);
//   - an edge to an empty static block, one that charges no instructions,
//     announces nothing and only jumps on, goes straight to where that
//     jump leads (threadEmpty), or to the watchdog's trap if the jumps
//     only lead round a cycle of such blocks.
//
// Each is exact: the vreg whose definition goes away is read by nobody else
// (singleUse), a static block has no recovery cursor to advance, and a
// skipped block charges no budget. sBlock still charges every block's IR
// instructions, so SlowInsts counts what it counted before.
func decodeProgram(p *ir.Program) slowProgram {
	junk := int32(p.NumVReg)
	once := singleUse(p)
	var sp slowProgram
	start := make([]int32, len(p.Blocks)) // block ID -> its sBlock record
	var terms []int                       // records whose targets are still block IDs
	for bi, blk := range p.Blocks {
		start[bi] = int32(len(sp.ops))
		hasDyn := int32(0)
		if blk.HasDyn {
			hasDyn = 1
		}
		sp.ops = append(sp.ops, slowOp{code: sBlock, a: int32(bi), b: hasDyn, imm: int64(len(blk.Insts))})
		insts := blk.Insts
		// A static block's branch takes in its compare, and the compare
		// its constant second operand.
		var cmp, cmpK *ir.Inst
		if n := len(insts); !blk.HasDyn && n > 0 && fusesBranch(&insts[n-1], &blk.Term, once) {
			cmp, insts = &insts[n-1], insts[:n-1]
			if n > 1 && immOperand(&insts[n-2], cmp, once) {
				cmpK, insts = &insts[n-2], insts[:n-2]
			}
		}
		dyn := int64(0)
		var k *ir.Inst // a constant the next record takes in
		for i := range insts {
			in := &insts[i]
			if i+1 < len(insts) && immOperand(in, &insts[i+1], once) {
				k = in
				continue
			}
			op := sp.decode(in, junk)
			if k != nil {
				op, k = withImm(op, k.Imm), nil
			}
			switch {
			case in.BT == ir.BTStatic:
				sp.ops = append(sp.ops, op)
			case in.BT == ir.BTStaticWT:
				sp.ops = append(sp.ops, op, slowOp{code: sWT, a: int32(bi), imm: dyn})
				dyn++
			case in.Op == ir.SetArg:
				sp.ops = append(sp.ops, slowOp{code: sSetArgDyn, a: in.A, imm: in.Imm})
			case in.Op == ir.Pin:
				sp.ops = append(sp.ops, slowOp{code: sPinDyn, d: in.D, a: in.A})
			default:
				sp.ops = append(sp.ops, slowOp{code: sDyn, a: int32(bi), imm: dyn}, op)
				dyn++
			}
		}
		// An unterminated block (the compiler emits none) runs again until
		// the step budget runs out.
		term := slowOp{code: sJmp, b: hasDyn, imm: int64(bi)}
		switch blk.Term.Op {
		case ir.Jmp:
			term.imm = int64(blk.Succ[0])
		case ir.Br:
			taken, not := int32(blk.Succ[0]), int32(blk.Succ[1])
			term = slowOp{code: sBr, a: blk.Term.A, d: taken, b: not, imm: int64(hasDyn)}
			switch {
			case blk.Term.BT == ir.BTDynamic:
				term.code = sBrDyn
			case cmpK != nil:
				term = slowOp{code: sBrEqI + binCodes[token.Kind(cmp.Sub)] - sEq, a: cmp.A, imm: cmpK.Imm, d: taken, b: not}
			case cmp != nil:
				term = slowOp{code: sBrEq + binCodes[token.Kind(cmp.Sub)] - sEq, a: cmp.A, b: cmp.B, d: taken, imm: int64(not)}
			}
		case ir.Ret:
			term = slowOp{code: sRet}
		}
		terms = append(terms, len(sp.ops))
		sp.ops = append(sp.ops, term)
	}
	// Edges skip empty blocks. A cycle of them charges nothing and can
	// never exit, so an edge into one leads instead to a trap: an sBlock
	// that charges more than any budget holds, which returns the step
	// watchdog's error, and a jump back to it.
	trap := int32(-1)
	target := func(b int32) int32 {
		to, ok := threadEmpty(p, int(b))
		if ok {
			return start[to]
		}
		if trap < 0 {
			trap = int32(len(sp.ops))
			sp.ops = append(sp.ops, slowOp{code: sBlock, a: int32(to), imm: -1}, slowOp{code: sJmp, imm: int64(trap)})
		}
		return trap
	}
	for _, t := range terms {
		op := sp.ops[t] // target may grow sp.ops
		retarget(&op, target)
		sp.ops[t] = op
	}
	sp.entry = int(target(int32(p.Entry)))
	sp.decodeSegments(p, junk)
	return sp
}

// singleUse marks the vregs a folded record may leave unwritten: those with
// one definition and one reader among every block's instructions and
// terminator. A vreg is never single-use if a dynamic segment operand, a
// TermSrc or a PinDst names it, because sWT and sDyn hand those to the
// recorder through appendPh and replay reads them, or if it is one of
// main's parameters, which every step seeds. The count is conservative: an
// operand field is a read and a destination field a definition whenever
// it names a vreg, whether or not the operation uses it.
func singleUse(p *ir.Program) []bool {
	defs := make([]int, p.NumVReg)
	reads := make([]int, p.NumVReg)
	add := func(n []int, r int32, k int) {
		if r >= 0 && int(r) < len(n) {
			n[r] += k
		}
	}
	count := func(in *ir.Inst) {
		add(defs, in.D, 1)
		add(reads, in.A, 1)
		add(reads, in.B, 1)
		for _, a := range in.Args {
			add(reads, a, 1)
		}
	}
	named := func(s ir.Src) {
		if s.Kind == ir.SrcVReg || s.Kind == ir.SrcPh {
			add(reads, s.VReg, 2)
		}
	}
	for v := range p.Params {
		add(reads, int32(v), 2)
	}
	for _, blk := range p.Blocks {
		for i := range blk.Insts {
			count(&blk.Insts[i])
		}
		count(&blk.Term)
		for i := range blk.Dyn {
			di := &blk.Dyn[i]
			named(di.A)
			named(di.B)
			for _, a := range di.Args {
				named(a)
			}
		}
		named(blk.TermSrc)
		if blk.DynTerm == ir.DTPin {
			add(reads, blk.PinDst, 2)
		}
	}
	once := make([]bool, p.NumVReg)
	for v := range once {
		once[v] = defs[v] == 1 && reads[v] == 1
	}
	return once
}

// immOperand reports whether the run-time static constant c can become the
// immediate of next, the instruction after it: next is a static Bin with a
// code of its own or a static QGet whose field index fits a record's b,
// and its second operand is c's single-use result.
func immOperand(c, next *ir.Inst, once []bool) bool {
	if c.Op != ir.Const || c.BT != ir.BTStatic || !isOnce(once, c.D) || next.B != c.D ||
		(next.BT != ir.BTStatic && next.BT != ir.BTStaticWT) {
		return false
	}
	switch next.Op {
	case ir.Bin:
		_, ok := binCodes[token.Kind(next.Sub)]
		return ok
	case ir.QOp:
		return next.Sub == ir.QGet && c.Imm == int64(int32(c.Imm))
	}
	return false
}

func isOnce(once []bool, r int32) bool { return r >= 0 && int(r) < len(once) && once[r] }

// withImm turns op, a Bin or QGet record, into its form whose second
// operand is the constant k.
func withImm(op slowOp, k int64) slowOp {
	switch op.code {
	case sQGet:
		op.code, op.b = sQGetI, int32(k)
		return op
	case sShl, sShr:
		k &= 63
	}
	op.code, op.b, op.imm = op.code-sAdd+sAddI, 0, k
	return op
}

// fusesBranch reports whether the run-time static compare in, the last
// instruction of a static block, can fuse with the block's branch term:
// the branch is static and its condition is in's single-use result.
func fusesBranch(in, term *ir.Inst, once []bool) bool {
	if term.Op != ir.Br || term.BT == ir.BTDynamic || in.Op != ir.Bin || in.BT != ir.BTStatic ||
		!isOnce(once, in.D) || term.A != in.D {
		return false
	}
	c := binCodes[token.Kind(in.Sub)]
	return c >= sEq && c <= sGe
}

// threadEmpty follows block b past empty static blocks: no instructions,
// no dynamic segment, a jump out. It reports false if they form a cycle,
// with b a block of the cycle.
func threadEmpty(p *ir.Program, b int) (int, bool) {
	for hops := 0; hops <= len(p.Blocks); hops++ {
		blk := p.Blocks[b]
		if len(blk.Insts) > 0 || blk.HasDyn || blk.Term.Op != ir.Jmp {
			return b, true
		}
		b = blk.Succ[0]
	}
	return b, false
}

// retarget maps the record-index targets of the terminator record op
// through f.
func retarget(op *slowOp, f func(int32) int32) {
	switch {
	case op.code == sJmp:
		op.imm = int64(f(int32(op.imm)))
	case op.code == sBr || op.code == sBrDyn || op.code >= sBrEqI:
		op.d, op.b = f(op.d), f(op.b)
	case op.code >= sBrEq:
		op.d, op.imm = f(op.d), int64(f(int32(op.imm)))
	}
}

// decodeSegments appends every block's replay segment. The window is as
// wide as the most placeholders any block declares (NPh) or holds, so a
// node whose data passed the replayer's placeholder-count check fits it.
// An operand that is absent (SrcNone) reads the constant 0.
func (sp *slowProgram) decodeSegments(p *ir.Program, junk int32) {
	width := 0
	for _, blk := range p.Blocks {
		n := 0
		for i := range blk.Dyn {
			di := &blk.Dyn[i]
			for _, s := range di.Args {
				n += int(bit(s.Kind == ir.SrcPh))
			}
			n += int(bit(di.A.Kind == ir.SrcPh) + bit(di.B.Kind == ir.SrcPh))
		}
		width = max(width, n, blk.NPh)
	}
	sp.window = junk + 1
	sp.constBase = sp.window + int32(width)
	pool := map[int64]int32{}
	var ph int32
	vreg := func(s ir.Src) int32 {
		switch s.Kind {
		case ir.SrcVReg:
			return s.VReg
		case ir.SrcPh:
			ph++
			return sp.window + ph - 1
		}
		c := int64(0)
		if s.Kind == ir.SrcConst {
			c = s.Const
		}
		r, ok := pool[c]
		if !ok {
			r = sp.constBase + int32(len(sp.consts))
			pool[c] = r
			sp.consts = append(sp.consts, c)
		}
		return r
	}
	sp.dyn = make([]int32, len(p.Blocks))
	for bi, blk := range p.Blocks {
		sp.dyn[bi] = int32(len(sp.ops))
		ph = 0
		for i := range blk.Dyn {
			di := &blk.Dyn[i]
			// Operands map in appendPh's order: A, B, then Args.
			in := ir.Inst{Op: di.Op, Sub: di.Sub, D: di.D, Imm: di.Imm, QID: di.QID}
			in.A = vreg(di.A)
			in.B = vreg(di.B)
			for _, a := range di.Args {
				in.Args = append(in.Args, vreg(a))
			}
			sp.ops = append(sp.ops, sp.decode(&in, junk))
		}
		sp.ops = append(sp.ops, slowOp{code: sEnd})
	}
}

// decode lowers one instruction's operation, ignoring its binding time.
func (sp *slowProgram) decode(in *ir.Inst, junk int32) slowOp {
	op := slowOp{d: in.D, a: in.A, b: in.B, imm: in.Imm}
	argList := func() {
		op.a, op.b = int32(len(sp.args)), int32(len(in.Args))
		sp.args = append(sp.args, in.Args...)
	}
	switch in.Op {
	case ir.Const:
		op.code = sConst
	case ir.Mov:
		op.code = sMov
	case ir.Bin:
		c, ok := binCodes[token.Kind(in.Sub)]
		if !ok {
			c, op.imm = sBin, int64(in.Sub)
		}
		op.code = c
	case ir.Un:
		switch token.Kind(in.Sub) {
		case token.MINUS:
			op.code = sNeg
		case token.TILDE:
			op.code = sCpl
		case token.NOT:
			op.code = sNot
		default:
			op.code, op.imm = sConst, 0 // an unknown operator's result
		}
	case ir.Ext:
		switch {
		case in.Imm >= 64:
			op.code = sMov
		case in.Sub == 1:
			op.code, op.imm = sSext, 64-in.Imm
		default:
			op.code, op.imm = sZext, 64-in.Imm
		}
	case ir.LoadG:
		op.code = sLoadG
	case ir.StoreG:
		op.code = sStoreG
	case ir.LoadA:
		op.code = sLoadA
	case ir.StoreA:
		op.code = sStoreA
	case ir.Fetch:
		op.code = sFetch
	case ir.CallExt:
		op.code = sCall
		argList()
	case ir.QOp:
		if op.d < 0 {
			op.d = junk
		}
		op.imm = int64(in.QID)
		switch in.Sub {
		case ir.QSize:
			op.code = sQSize
		case ir.QPush:
			op.code = sQPush
			argList()
		case ir.QPop:
			op.code = sQPop
		case ir.QGet:
			op.code = sQGet
		case ir.QSet:
			val := int32(-1) // no value operand: executing it panics on the index
			if len(in.Args) > 0 {
				val = in.Args[0]
			}
			op.code, op.imm = sQSet, int64(uint32(in.QID))|int64(val)<<32
		case ir.QFront:
			op.code = sQFront
		case ir.QFull:
			op.code = sQFull
		case ir.QClear:
			op.code = sQClear
		default:
			op.code, op.imm = sConst, 0 // an unknown sub-operation's result
		}
	case ir.SetArg:
		op.code = sSetArg
	case ir.Pin:
		op.code = sPin
	default:
		op.code = sNop
	}
	return op
}

// bit converts a truth value to Facile's 0/1.
func bit(x bool) int64 {
	if x {
		return 1
	}
	return 0
}

// runStepSlow executes one step of the slow/complete simulator. When cur is
// non-nil the step starts in recovery mode: run-time static code executes
// normally, dynamic instructions are skipped (the failed replay already
// performed them), and dynamic-result tests consume replayed values from
// the cursor until it goes live. sink, when non-nil, observes the step's
// dynamic structure from the moment the cursor is live (miss recovery
// pre-attaches the recorder to the miss node's new fork).
func (m *Machine) runStepSlow(sink *recorder, cur *rcursor) error {
	m.stats.SlowSteps++
	// Seed main's integer-parameter vregs (they occupy the first vregs in
	// declaration order).
	vr := m.vregs
	copy(vr, m.argI)
	copy(m.argBuf, m.argI) // set_args defaults to re-running with same args
	budget := m.opt.StepInstBudget
	// Every block charges its instructions to budget, so what the step has
	// used is what SlowInsts counts.
	defer func() { m.stats.SlowInsts += m.opt.StepInstBudget - budget }()
	ops := m.slow.ops
	for pc := m.slow.entry; ; {
		op := &ops[pc]
		pc++
		if CountRecords {
			m.records++
		}
		switch op.code {
		case sBlock:
			if sink != nil && op.b != 0 && (cur == nil || cur.live) {
				sink.enterBlock(int(op.a), m.p.Blocks[op.a])
			}
			if n := uint64(op.imm); budget >= n {
				budget -= n
			} else {
				m.g.Fault(faults.WatchdogStep, "step exceeded the instruction budget")
				m.g.WatchdogTrips++
				return fmt.Errorf("rt: step exceeded the instruction budget (non-terminating step?)")
			}
		case sConst:
			vr[op.d] = op.imm
		case sMov:
			vr[op.d] = vr[op.a]
		case sAdd:
			vr[op.d] = vr[op.a] + vr[op.b]
		case sSub:
			vr[op.d] = vr[op.a] - vr[op.b]
		case sMul:
			vr[op.d] = vr[op.a] * vr[op.b]
		case sDiv:
			if y := vr[op.b]; y != 0 {
				vr[op.d] = vr[op.a] / y
			} else {
				vr[op.d] = 0
			}
		case sRem:
			if y := vr[op.b]; y != 0 {
				vr[op.d] = vr[op.a] % y
			} else {
				vr[op.d] = 0
			}
		case sAnd:
			vr[op.d] = vr[op.a] & vr[op.b]
		case sOr:
			vr[op.d] = vr[op.a] | vr[op.b]
		case sXor:
			vr[op.d] = vr[op.a] ^ vr[op.b]
		case sShl:
			vr[op.d] = vr[op.a] << (uint64(vr[op.b]) & 63)
		case sShr:
			vr[op.d] = vr[op.a] >> (uint64(vr[op.b]) & 63)
		case sEq:
			vr[op.d] = bit(vr[op.a] == vr[op.b])
		case sNe:
			vr[op.d] = bit(vr[op.a] != vr[op.b])
		case sLt:
			vr[op.d] = bit(vr[op.a] < vr[op.b])
		case sLe:
			vr[op.d] = bit(vr[op.a] <= vr[op.b])
		case sGt:
			vr[op.d] = bit(vr[op.a] > vr[op.b])
		case sGe:
			vr[op.d] = bit(vr[op.a] >= vr[op.b])
		case sLAnd:
			vr[op.d] = bit(vr[op.a] != 0 && vr[op.b] != 0)
		case sLOr:
			vr[op.d] = bit(vr[op.a] != 0 || vr[op.b] != 0)
		case sBin:
			vr[op.d] = types.EvalBinary(token.Kind(op.imm), vr[op.a], vr[op.b])
		case sNeg:
			vr[op.d] = -vr[op.a]
		case sCpl:
			vr[op.d] = ^vr[op.a]
		case sNot:
			vr[op.d] = bit(vr[op.a] == 0)
		case sSext:
			s := uint(op.imm)
			vr[op.d] = vr[op.a] << s >> s
		case sZext:
			s := uint(op.imm)
			vr[op.d] = int64(uint64(vr[op.a]) << s >> s)
		case sLoadG:
			vr[op.d] = m.globals[op.imm]
		case sStoreG:
			m.globals[op.imm] = vr[op.a]
		case sLoadA:
			arr := m.arrays[op.imm]
			if j := vr[op.a]; j >= 0 && j < int64(len(arr)) {
				vr[op.d] = arr[j]
			} else {
				vr[op.d] = 0
			}
		case sStoreA:
			arr := m.arrays[op.imm]
			if j := vr[op.a]; j >= 0 && j < int64(len(arr)) {
				arr[j] = vr[op.b]
			}
		case sFetch:
			vr[op.d] = int64(m.text.FetchWord(uint64(vr[op.a])))
		case sCall:
			fn := m.externs[op.imm]
			if fn == nil {
				panic(fmt.Sprintf("rt: extern %q not registered", m.p.Externs[op.imm]))
			}
			args := m.scratch[:op.b]
			for j, r := range m.slow.args[op.a : op.a+op.b] {
				args[j] = vr[r]
			}
			vr[op.d] = fn(args)
		case sQSize:
			vr[op.d] = int64(m.queue(int32(op.imm)).Size())
		case sQPush:
			vals := m.scratch[:op.b]
			for j, r := range m.slow.args[op.a : op.a+op.b] {
				vals[j] = vr[r]
			}
			m.queue(int32(op.imm)).Push(vals)
			vr[op.d] = 0
		case sQPop:
			vr[op.d] = m.queue(int32(op.imm)).Pop()
		case sQGet:
			vr[op.d] = m.queue(int32(op.imm)).Get(vr[op.a], vr[op.b])
		case sQSet:
			m.queue(int32(op.imm)).Set(vr[op.a], vr[op.b], vr[int32(op.imm>>32)])
			vr[op.d] = 0
		case sQFront:
			vr[op.d] = m.queue(int32(op.imm)).Front(vr[op.a])
		case sQFull:
			vr[op.d] = bit(m.queue(int32(op.imm)).Full())
		case sQClear:
			m.queue(int32(op.imm)).Clear()
			vr[op.d] = 0
		case sSetArg:
			m.argBuf[op.imm] = vr[op.a]
		case sPin:
			vr[op.d] = vr[op.a]
		case sDyn:
			if cur != nil && !cur.live {
				pc++ // already performed by the replay being recovered
				continue
			}
			if sink != nil {
				sink.ph(&m.p.Blocks[op.a].Dyn[op.imm], vr)
			}
		case sWT:
			// Run-time static computation whose value dynamic code can
			// observe: memoize the result so the fast simulator re-applies
			// it during replay (the placeholder is the just-computed value).
			if sink != nil && (cur == nil || cur.live) {
				sink.ph(&m.p.Blocks[op.a].Dyn[op.imm], vr)
			}
		case sSetArgDyn:
			if cur != nil && !cur.live {
				m.argBuf[op.imm] = cur.take(vr[op.a])
			} else {
				v := vr[op.a]
				m.argBuf[op.imm] = v
				if sink != nil {
					sink.fork(v)
				}
			}
		case sPinDyn:
			// dynamic result test: the pinned value becomes rt-static
			if cur != nil && !cur.live {
				vr[op.d] = cur.take(vr[op.a])
			} else {
				v := vr[op.a]
				vr[op.d] = v
				if sink != nil {
					sink.fork(v)
				}
			}
		case sJmp:
			if op.b != 0 && cur != nil {
				cur.blockDone()
			}
			pc = int(op.imm)
		case sBr:
			if op.imm != 0 && cur != nil {
				cur.blockDone()
			}
			if vr[op.a] != 0 {
				pc = int(op.d)
			} else {
				pc = int(op.b)
			}
		case sBrDyn:
			var v int64
			if cur != nil && !cur.live {
				v = cur.take(b2i(vr[op.a]))
			} else {
				v = b2i(vr[op.a])
				if sink != nil {
					sink.fork(v)
				}
			}
			if cur != nil {
				cur.blockDone()
			}
			if v != 0 {
				pc = int(op.d)
			} else {
				pc = int(op.b)
			}
		case sAddI:
			vr[op.d] = vr[op.a] + op.imm
		case sSubI:
			vr[op.d] = vr[op.a] - op.imm
		case sMulI:
			vr[op.d] = vr[op.a] * op.imm
		case sDivI:
			if op.imm != 0 {
				vr[op.d] = vr[op.a] / op.imm
			} else {
				vr[op.d] = 0
			}
		case sRemI:
			if op.imm != 0 {
				vr[op.d] = vr[op.a] % op.imm
			} else {
				vr[op.d] = 0
			}
		case sAndI:
			vr[op.d] = vr[op.a] & op.imm
		case sOrI:
			vr[op.d] = vr[op.a] | op.imm
		case sXorI:
			vr[op.d] = vr[op.a] ^ op.imm
		case sShlI:
			vr[op.d] = vr[op.a] << uint64(op.imm)
		case sShrI:
			vr[op.d] = vr[op.a] >> uint64(op.imm)
		case sEqI:
			vr[op.d] = bit(vr[op.a] == op.imm)
		case sNeI:
			vr[op.d] = bit(vr[op.a] != op.imm)
		case sLtI:
			vr[op.d] = bit(vr[op.a] < op.imm)
		case sLeI:
			vr[op.d] = bit(vr[op.a] <= op.imm)
		case sGtI:
			vr[op.d] = bit(vr[op.a] > op.imm)
		case sGeI:
			vr[op.d] = bit(vr[op.a] >= op.imm)
		case sLAndI:
			vr[op.d] = bit(vr[op.a] != 0 && op.imm != 0)
		case sLOrI:
			vr[op.d] = bit(vr[op.a] != 0 || op.imm != 0)
		case sQGetI:
			vr[op.d] = m.queue(int32(op.imm)).Get(vr[op.a], int64(op.b))
		case sBrEq:
			pc = int(op.imm)
			if vr[op.a] == vr[op.b] {
				pc = int(op.d)
			}
		case sBrNe:
			pc = int(op.imm)
			if vr[op.a] != vr[op.b] {
				pc = int(op.d)
			}
		case sBrLt:
			pc = int(op.imm)
			if vr[op.a] < vr[op.b] {
				pc = int(op.d)
			}
		case sBrLe:
			pc = int(op.imm)
			if vr[op.a] <= vr[op.b] {
				pc = int(op.d)
			}
		case sBrGt:
			pc = int(op.imm)
			if vr[op.a] > vr[op.b] {
				pc = int(op.d)
			}
		case sBrGe:
			pc = int(op.imm)
			if vr[op.a] >= vr[op.b] {
				pc = int(op.d)
			}
		case sBrEqI:
			pc = int(op.b)
			if vr[op.a] == op.imm {
				pc = int(op.d)
			}
		case sBrNeI:
			pc = int(op.b)
			if vr[op.a] != op.imm {
				pc = int(op.d)
			}
		case sBrLtI:
			pc = int(op.b)
			if vr[op.a] < op.imm {
				pc = int(op.d)
			}
		case sBrLeI:
			pc = int(op.b)
			if vr[op.a] <= op.imm {
				pc = int(op.d)
			}
		case sBrGtI:
			pc = int(op.b)
			if vr[op.a] > op.imm {
				pc = int(op.d)
			}
		case sBrGeI:
			pc = int(op.b)
			if vr[op.a] >= op.imm {
				pc = int(op.d)
			}
		case sRet:
			if cur != nil && !cur.live && !cur.rekey {
				cur.incomplete = true
			}
			copy(m.argI, m.argBuf)
			if m.opt.Memoize {
				// Only a memoizing machine keeps curKey; see nextKey.
				key := buildKey(m.argI, m.argQ)
				if sink != nil && (cur == nil || cur.live) {
					sink.ret(key)
				}
				m.curKey = key
			}
			if m.stop != nil && m.stop(m) {
				m.done = true
			}
			return nil
		}
	}
}
