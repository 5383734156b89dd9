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
func decodeProgram(p *ir.Program) slowProgram {
	junk := int32(p.NumVReg)
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
		dyn := int64(0)
		for i := range blk.Insts {
			in := &blk.Insts[i]
			switch {
			case in.BT == ir.BTStatic:
				sp.ops = append(sp.ops, sp.decode(in, junk))
			case in.BT == ir.BTStaticWT:
				sp.ops = append(sp.ops, sp.decode(in, junk), slowOp{code: sWT, a: int32(bi), imm: dyn})
				dyn++
			case in.Op == ir.SetArg:
				sp.ops = append(sp.ops, slowOp{code: sSetArgDyn, a: in.A, imm: in.Imm})
			case in.Op == ir.Pin:
				sp.ops = append(sp.ops, slowOp{code: sPinDyn, d: in.D, a: in.A})
			default:
				sp.ops = append(sp.ops, slowOp{code: sDyn, a: int32(bi), imm: dyn}, sp.decode(in, junk))
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
			term = slowOp{code: sBr, a: blk.Term.A, d: int32(blk.Succ[0]), b: int32(blk.Succ[1]), imm: int64(hasDyn)}
			if blk.Term.BT == ir.BTDynamic {
				term.code = sBrDyn
			}
		case ir.Ret:
			term = slowOp{code: sRet}
		}
		terms = append(terms, len(sp.ops))
		sp.ops = append(sp.ops, term)
	}
	for _, t := range terms {
		switch op := &sp.ops[t]; op.code {
		case sJmp:
			op.imm = int64(start[op.imm])
		case sBr, sBrDyn:
			op.d, op.b = start[op.d], start[op.b]
		}
	}
	sp.entry = int(start[p.Entry])
	sp.decodeSegments(p, junk)
	return sp
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
func (m *Machine) runStepSlow(sink stepSink, cur *rcursor) error {
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
		switch op.code {
		case sBlock:
			if sink != nil && op.b != 0 && (cur == nil || cur.live) {
				sink.enterBlock(int(op.a), m.p.Blocks[op.a])
			}
			if n := uint64(op.imm); budget >= n {
				budget -= n
			} else {
				m.fault(faults.WatchdogStep, "step exceeded the instruction budget")
				m.stats.WatchdogTrips++
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
