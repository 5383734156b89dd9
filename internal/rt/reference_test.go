package rt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// This file holds the reference the decoded replay segments are checked
// against: execDyn interprets one ir.DynInst at a time, reading each
// operand from a dynamic vreg, the next recorded placeholder, or a
// constant.

// execDyn executes one dynamic instruction of the fast simulator, reading
// operands from dynamic vregs, recorded placeholders, or constants. Every
// access is guarded: recorded data is untrusted, and replay must degrade,
// not panic.
func (m *Machine) execDyn(di *ir.DynInst, data []int64, ph *int) {
	rd := func(s ir.Src) int64 {
		switch s.Kind {
		case ir.SrcVReg:
			return m.vregs[s.VReg]
		case ir.SrcPh:
			if *ph >= len(data) {
				return 0
			}
			v := data[*ph]
			*ph++
			return v
		case ir.SrcConst:
			return s.Const
		}
		return 0
	}
	switch di.Op {
	case ir.Mov:
		m.vregs[di.D] = rd(di.A)
	case ir.Bin:
		a := rd(di.A)
		b := rd(di.B)
		m.vregs[di.D] = types.EvalBinary(token.Kind(di.Sub), a, b)
	case ir.Un:
		m.vregs[di.D] = evalUn(di.Sub, rd(di.A))
	case ir.Ext:
		m.vregs[di.D] = extend(rd(di.A), di.Imm, di.Sub == 1)
	case ir.LoadG:
		m.vregs[di.D] = m.globals[di.Imm]
	case ir.StoreG:
		m.globals[di.Imm] = rd(di.A)
	case ir.LoadA:
		arr := m.arrays[di.Imm]
		i := rd(di.A)
		if i >= 0 && i < int64(len(arr)) {
			m.vregs[di.D] = arr[i]
		} else {
			m.vregs[di.D] = 0
		}
	case ir.StoreA:
		arr := m.arrays[di.Imm]
		i := rd(di.A)
		val := rd(di.B)
		if i >= 0 && i < int64(len(arr)) {
			arr[i] = val
		}
	case ir.Fetch:
		m.vregs[di.D] = int64(m.text.FetchWord(uint64(rd(di.A))))
	case ir.QOp:
		// only dynamic (global) queues reach the fast simulator
		q := m.queue(di.QID)
		var res int64
		switch di.Sub {
		case ir.QSize:
			res = int64(q.Size())
		case ir.QPush:
			vals := m.scratch[:len(di.Args)]
			for i, a := range di.Args {
				vals[i] = rd(a)
			}
			if len(vals) == q.Width() {
				q.Push(vals)
			}
		case ir.QPop:
			res = q.Pop()
		case ir.QGet:
			res = q.Get(rd(di.A), rd(di.B))
		case ir.QSet:
			a, b := rd(di.A), rd(di.B)
			q.Set(a, b, rd(di.Args[0]))
		case ir.QFront:
			res = q.Front(rd(di.A))
		case ir.QFull:
			if q.Full() {
				res = 1
			}
		case ir.QClear:
			q.Clear()
		}
		if di.D >= 0 {
			m.vregs[di.D] = res
		}
	case ir.CallExt:
		fn := m.externs[di.Imm]
		args := m.scratch[:len(di.Args)]
		for i, a := range di.Args {
			args[i] = rd(a)
		}
		if fn != nil {
			m.vregs[di.D] = fn(args)
		} else {
			m.vregs[di.D] = 0
		}
	}
}

func evalUn(sub uint8, a int64) int64 {
	switch token.Kind(sub) {
	case token.MINUS:
		return -a
	case token.TILDE:
		return ^a
	case token.NOT:
		if a == 0 {
			return 1
		}
		return 0
	}
	// Unknown sub-op: a compiler bug, but this is reachable from the replay
	// fast path, so produce a value rather than panicking.
	return 0
}

func extend(a int64, bits int64, signed bool) int64 {
	if bits >= 64 {
		return a
	}
	shift := uint(64 - bits)
	if signed {
		return a << shift >> shift
	}
	return int64(uint64(a) << shift >> shift)
}

// oracleText is a target text whose every address holds a distinct word.
type oracleText struct{}

func (oracleText) FetchWord(addr uint64) uint32 { return uint32(addr*0x9E3779B1>>7) ^ uint32(addr) }

// oracleMachine builds a machine for p whose every extern records its
// arguments in *calls (extern index first) and returns a value mixed from
// them.
func oracleMachine(p *ir.Program, calls *[][]int64) *Machine {
	m := New(p, oracleText{}, Options{})
	for i, name := range p.Externs {
		if err := m.RegisterExtern(name, func(args []int64) int64 {
			*calls = append(*calls, append([]int64{int64(i)}, args...))
			h := int64(i) + 1
			for _, a := range args {
				h = h*0x100000001B3 ^ a
			}
			return h
		}); err != nil {
			panic(err)
		}
	}
	return m
}

var oracleBoundary = []int64{0, 1, -1, 2, 31, 63, 64, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}

// oracleValue draws a small value (a likely array or queue index), a
// boundary value, or a random one.
func oracleValue(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return int64(r.Intn(16))
	case 1:
		return oracleBoundary[r.Intn(len(oracleBoundary))]
	}
	return int64(r.Uint64())
}

// oracleState is one set of inputs for a block: the program's vregs,
// globals, arrays, queue contents and the node's placeholder values.
type oracleState struct {
	vregs, globals []int64
	arrays, queues [][]int64
	data           []int64
}

// drawState draws inputs for blk. Of vregs, which it updates in place, it
// redraws the ones blk's segment names; the rest keep earlier draws.
func drawState(r *rand.Rand, m *Machine, blk *ir.Block, vregs []int64) *oracleState {
	fill := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = oracleValue(r)
		}
		return s
	}
	for i := range blk.Dyn {
		di := &blk.Dyn[i]
		for _, s := range append([]ir.Src{di.A, di.B}, di.Args...) {
			if s.Kind == ir.SrcVReg {
				vregs[s.VReg] = oracleValue(r)
			}
		}
		if di.D >= 0 {
			vregs[di.D] = oracleValue(r)
		}
	}
	st := &oracleState{vregs: vregs, globals: fill(len(m.globals)), data: fill(blk.NPh)}
	for _, a := range m.arrays {
		st.arrays = append(st.arrays, fill(len(a)))
	}
	for _, q := range append(slices.Clone(m.queuesG), m.argQ...) {
		st.queues = append(st.queues, fill(r.Intn(q.Cap()+1)*q.Width()))
	}
	return st
}

func (m *Machine) loadState(st *oracleState) {
	copy(m.vregs, st.vregs)
	copy(m.globals, st.globals)
	for i, a := range st.arrays {
		copy(m.arrays[i], a)
	}
	for i, q := range append(slices.Clone(m.queuesG), m.argQ...) {
		q.data = append(q.data[:0], st.queues[i]...)
	}
}

// diffState describes the first difference between the states of the
// decoded machine d and the reference machine r, or returns "".
func diffState(d, r *Machine, dcalls, rcalls [][]int64) string {
	for i := 0; i < d.p.NumVReg; i++ {
		if d.vregs[i] != r.vregs[i] {
			return fmt.Sprintf("vreg %d: decoded %d, reference %d", i, d.vregs[i], r.vregs[i])
		}
	}
	if !slices.Equal(d.globals, r.globals) {
		return fmt.Sprintf("globals: decoded %v, reference %v", d.globals, r.globals)
	}
	for i := range d.arrays {
		if !slices.Equal(d.arrays[i], r.arrays[i]) {
			return fmt.Sprintf("array %d: decoded %v, reference %v", i, d.arrays[i], r.arrays[i])
		}
	}
	dq, rq := append(slices.Clone(d.queuesG), d.argQ...), append(slices.Clone(r.queuesG), r.argQ...)
	for i := range dq {
		if !slices.Equal(dq[i].data, rq[i].data) {
			return fmt.Sprintf("queue %d: decoded %v, reference %v", i, dq[i].data, rq[i].data)
		}
	}
	if !slices.EqualFunc(dcalls, rcalls, slices.Equal) {
		return fmt.Sprintf("extern calls: decoded %v, reference %v", dcalls, rcalls)
	}
	return ""
}

// CheckSegments runs every block of p through both replay executors, trials
// times each from the same random and boundary inputs: runDyn over the
// block's decoded segment with the placeholder window filled from the
// node's data, and execDyn over the block's ir.DynInst list. It returns
// the number of blocks checked and one line per block whose states differ.
// Placeholders must sit in operand fields execDyn reads, in the order it
// reads them, as they do in compiled descriptions.
func CheckSegments(p *ir.Program, trials int, seed int64) (blocks int, diffs []string) {
	var dcalls, rcalls [][]int64
	dec, ref := oracleMachine(p, &dcalls), oracleMachine(p, &rcalls)
	r := rand.New(rand.NewSource(seed))
	vregs := make([]int64, p.NumVReg)
	for i := range vregs {
		vregs[i] = oracleValue(r)
	}
	for bi, blk := range p.Blocks {
		for trial := 0; trial < trials; trial++ {
			st := drawState(r, dec, blk, vregs)
			dec.loadState(st)
			ref.loadState(st)
			dcalls, rcalls = dcalls[:0], rcalls[:0]
			dec.fillWindow(st.data)
			dec.runDyn(dec.slow.dyn[bi])
			ph := 0
			for i := range blk.Dyn {
				ref.execDyn(&blk.Dyn[i], st.data, &ph)
			}
			if d := diffState(dec, ref, dcalls, rcalls); d != "" {
				diffs = append(diffs, fmt.Sprintf("block %d, trial %d: %s", bi, trial, d))
				break
			}
		}
		blocks++
	}
	return blocks, diffs
}

// execInst executes one IR instruction as the slow simulator's definition
// reads it, whatever its binding time: the reference the decoded slow
// blocks are checked against.
func (m *Machine) execInst(in *ir.Inst) {
	vr := m.vregs
	switch in.Op {
	case ir.Const:
		vr[in.D] = in.Imm
	case ir.Mov, ir.Pin:
		vr[in.D] = vr[in.A]
	case ir.Bin:
		vr[in.D] = types.EvalBinary(token.Kind(in.Sub), vr[in.A], vr[in.B])
	case ir.Un:
		vr[in.D] = evalUn(in.Sub, vr[in.A])
	case ir.Ext:
		vr[in.D] = extend(vr[in.A], in.Imm, in.Sub == 1)
	case ir.LoadG:
		vr[in.D] = m.globals[in.Imm]
	case ir.StoreG:
		m.globals[in.Imm] = vr[in.A]
	case ir.LoadA:
		arr := m.arrays[in.Imm]
		if i := vr[in.A]; i >= 0 && i < int64(len(arr)) {
			vr[in.D] = arr[i]
		} else {
			vr[in.D] = 0
		}
	case ir.StoreA:
		arr := m.arrays[in.Imm]
		if i := vr[in.A]; i >= 0 && i < int64(len(arr)) {
			arr[i] = vr[in.B]
		}
	case ir.Fetch:
		vr[in.D] = int64(m.text.FetchWord(uint64(vr[in.A])))
	case ir.CallExt:
		args := make([]int64, len(in.Args))
		for i, a := range in.Args {
			args[i] = vr[a]
		}
		vr[in.D] = m.externs[in.Imm](args)
	case ir.QOp:
		q := m.queue(in.QID)
		var res int64
		switch in.Sub {
		case ir.QSize:
			res = int64(q.Size())
		case ir.QPush:
			vals := make([]int64, len(in.Args))
			for i, a := range in.Args {
				vals[i] = vr[a]
			}
			q.Push(vals)
		case ir.QPop:
			res = q.Pop()
		case ir.QGet:
			res = q.Get(vr[in.A], vr[in.B])
		case ir.QSet:
			q.Set(vr[in.A], vr[in.B], vr[in.Args[0]])
		case ir.QFront:
			res = q.Front(vr[in.A])
		case ir.QFull:
			if q.Full() {
				res = 1
			}
		case ir.QClear:
			q.Clear()
		}
		if in.D >= 0 {
			vr[in.D] = res
		}
	case ir.SetArg:
		m.argBuf[in.Imm] = vr[in.A]
	}
}

// refSuccessors returns the blocks the decoded successor of blk, run by
// the reference, may be: the successor its terminator names, followed past
// empty static blocks (no instructions, no dynamic segment, a jump out) to
// the first block that is not one. If those blocks form a cycle, any block
// of it will do. A return has the successor -1.
func refSuccessors(p *ir.Program, bi int, vregs []int64) []int {
	blk := p.Blocks[bi]
	s := bi // an unterminated block runs again
	switch blk.Term.Op {
	case ir.Ret:
		return []int{-1}
	case ir.Jmp:
		s = blk.Succ[0]
	case ir.Br:
		s = blk.Succ[1]
		if vregs[blk.Term.A] != 0 {
			s = blk.Succ[0]
		}
	}
	var chain []int
	for !slices.Contains(chain, s) {
		chain = append(chain, s)
		b := p.Blocks[s]
		if len(b.Insts) > 0 || b.HasDyn || b.Term.Op != ir.Jmp {
			return []int{s}
		}
		s = b.Succ[0]
	}
	return chain
}

// blockLocal marks, per block, the vregs no later instruction can read
// once the block is done: one definition, in the block, every reader in
// the block after it, and not named by a dynamic segment, a TermSrc or a
// PinDst, nor one of main's parameters. The slow-block check compares
// every other vreg.
func blockLocal(p *ir.Program) [][]bool {
	type at struct{ blk, idx int }
	defs := make([][]at, p.NumVReg)
	reads := make([][]at, p.NumVReg)
	observed := make([]bool, p.NumVReg)
	for v := range p.Params {
		observed[v] = true
	}
	for bi, blk := range p.Blocks {
		insts := append(slices.Clone(blk.Insts), blk.Term)
		for i, in := range insts {
			if in.D >= 0 {
				defs[in.D] = append(defs[in.D], at{bi, i})
			}
			for _, r := range append([]int32{in.A, in.B}, in.Args...) {
				if r >= 0 {
					reads[r] = append(reads[r], at{bi, i})
				}
			}
		}
		for _, di := range blk.Dyn {
			for _, s := range append([]ir.Src{di.A, di.B}, di.Args...) {
				if s.Kind == ir.SrcVReg || s.Kind == ir.SrcPh {
					observed[s.VReg] = true
				}
			}
		}
		if s := blk.TermSrc; s.Kind == ir.SrcVReg || s.Kind == ir.SrcPh {
			observed[s.VReg] = true
		}
		if blk.DynTerm == ir.DTPin {
			observed[blk.PinDst] = true
		}
	}
	local := make([][]bool, len(p.Blocks))
	for bi := range local {
		local[bi] = make([]bool, p.NumVReg)
	}
	for v := range defs {
		if observed[v] || len(defs[v]) != 1 {
			continue
		}
		d := defs[v][0]
		ok := true
		for _, r := range reads[v] {
			ok = ok && r.blk == d.blk && r.idx > d.idx
		}
		local[d.blk][v] = ok
	}
	return local
}

// isolateBlocks rewrites m's slow records so that a block runs alone: every
// terminator leads instead to an exit that writes the ID of the block it
// would have entered (-1 at a return, -2 at a record that starts no block)
// to the junk vreg and ends the step. It returns each block's first record.
func (m *Machine) isolateBlocks() []int32 {
	ops := slices.Clone(m.slow.ops)
	end := len(ops)
	if len(m.slow.dyn) > 0 {
		end = int(m.slow.dyn[0])
	}
	nb := int32(len(m.p.Blocks))
	starts := make([]int32, nb)
	block := map[int32]int32{}
	for pc := 0; pc < end; pc++ {
		if ops[pc].code == sBlock {
			// The watchdog's trap (imm < 0) stands for a cycle of empty
			// blocks as a successor; it starts none of them.
			if ops[pc].imm >= 0 {
				starts[ops[pc].a] = int32(pc)
			}
			block[int32(pc)] = ops[pc].a
		}
	}
	junk := int32(m.p.NumVReg)
	base := int32(len(ops))
	for b := int32(0); b < nb+2; b++ {
		id := b
		if b >= nb {
			id = nb - 1 - b // -1, then -2
		}
		ops = append(ops, slowOp{code: sConst, d: junk, imm: int64(id)}, slowOp{code: sRet})
	}
	exit := func(t int32) int32 {
		if b, ok := block[t]; ok {
			return base + 2*b
		}
		return base + 2*(nb+1)
	}
	for pc := 0; pc < end; pc++ {
		if ops[pc].code == sRet {
			ops[pc] = slowOp{code: sJmp, imm: int64(base + 2*nb)}
		} else {
			retarget(&ops[pc], exit)
		}
	}
	m.slow.ops = ops
	return starts
}

// CheckSlowBlocks runs every block of p from its decoded slow records,
// trials times each from random and boundary inputs, and through the
// ir.Inst reference execInst from the same inputs. It returns the number
// of blocks checked and one line per block whose outcomes differ: the
// successor taken (past empty static blocks), the vregs a later
// instruction, the recorder or replay may read, globals, arrays, queues,
// extern argument lists and the next step's arguments.
func CheckSlowBlocks(p *ir.Program, trials int, seed int64) (blocks int, diffs []string) {
	var dcalls, rcalls [][]int64
	dec, ref := oracleMachine(p, &dcalls), oracleMachine(p, &rcalls)
	starts := dec.isolateBlocks()
	local := blockLocal(p)
	junk := p.NumVReg
	r := rand.New(rand.NewSource(seed))
	vregs := make([]int64, p.NumVReg)
	for bi, blk := range p.Blocks {
		for trial := 0; trial < trials; trial++ {
			for i := range vregs {
				vregs[i] = oracleValue(r)
			}
			st := drawState(r, dec, blk, vregs)
			dec.loadState(st)
			ref.loadState(st)
			// The step seeds main's parameter vregs and the next step's
			// arguments from the current arguments.
			copy(dec.argI, vregs)
			copy(ref.argBuf, vregs)
			dcalls, rcalls = dcalls[:0], rcalls[:0]
			dec.slow.entry = int(starts[bi])
			if err := dec.runStepSlow(nil, nil); err != nil {
				diffs = append(diffs, fmt.Sprintf("block %d, trial %d: %v", bi, trial, err))
				break
			}
			for i := range blk.Insts {
				ref.execInst(&blk.Insts[i])
			}
			succ := refSuccessors(p, bi, ref.vregs)
			for v, skip := range local[bi] {
				if skip {
					dec.vregs[v] = ref.vregs[v]
				}
			}
			d := diffState(dec, ref, dcalls, rcalls)
			if d == "" && !slices.Equal(dec.argBuf, ref.argBuf) {
				d = fmt.Sprintf("next-step arguments: decoded %v, reference %v", dec.argBuf, ref.argBuf)
			}
			if got := dec.vregs[junk]; d == "" && !slices.Contains(succ, int(got)) {
				d = fmt.Sprintf("successor: decoded %d, reference %v", got, succ)
			}
			if d != "" {
				diffs = append(diffs, fmt.Sprintf("block %d, trial %d: %s", bi, trial, d))
				break
			}
		}
		blocks++
	}
	return blocks, diffs
}
