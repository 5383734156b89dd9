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
