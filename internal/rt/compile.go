package rt

import (
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// This file is the compiled replay substrate: instead of interpreting each
// block's dynamic segment one ir.DynInst at a time (execDyn's per-op and
// per-operand switches), Machine construction precompiles dynamic segments
// into chains of specialized closures with all operand dispatch — dynamic
// vreg, recorded placeholder, constant — resolved at compile time. Every
// block whose layout is proven compiles: pure-flow, fork and step-end
// alike. Replay runs a proven block's chain on the per-node path, and fuses
// straight-line runs of pure-flow (DTNone) nodes into superinstructions
// executed as one pre-validated call sequence.
//
// Correctness contract:
//
//   - Results are bit-identical to the interpreted path: closures replicate
//     execDyn's semantics exactly, and placeholder indices are assigned in
//     the same order the recorder appended them (appendPh) and the
//     interpreter consumes them (execDyn's read order). A block whose
//     operand layout cannot be proven to match — a placeholder in a field
//     the op never reads — is left uncompiled and replays interpreted.
//
//   - All fault degradation survives compilation: a block's chain runs, on
//     the per-node path or inside a fused run, only after the node passed
//     the interpreter's checks (block range, placeholder count, registered
//     externs). A fused run ends before the first node that fails them, so
//     the per-node loop re-detects the corruption with the identical fault
//     kind at the identical node count. Misses can only happen at
//     dynamic-result nodes, which are never inside a run; their dynamic
//     result is tested after the chain, exactly as after execDyn.
//
//   - Fused state is derived, not memoized: it is never serialized
//     (snapshot/warmio enumerate fields explicitly), is rebuilt lazily
//     after warm-cache adoption, and is discarded when the owning entry's
//     cver moves (fault injection, invalidation) so a mutated chain is
//     always re-validated before its next replay.
//
//   - Closures that pass an argument list (CallExt, QPush) fill the
//     machine's scratch slice instead of allocating: Queue.Push copies its
//     input and externs must not retain theirs (see Extern).

// dynFn executes one dynamic instruction with operand kinds resolved at
// compile time; data is the node's recorded placeholder values.
type dynFn func(m *Machine, data []int64)

// blockCode is the compiled form of one block's dynamic segment.
type blockCode struct {
	fns []dynFn
	ok  bool // operand layout proven to match the recorder's placeholder order
}

// maxFuseLen bounds one superinstruction's node count. Longer straight-line
// chains split into consecutive runs; a cycle in a corrupted graph therefore
// still accumulates m.nodes toward the replay watchdog instead of hanging
// the builder. Shared with the compiler's static replay planner, whose
// MaxRun figures are capped at the same bound.
const maxFuseLen = ir.MaxFuseLen

// minFuseLen is the shortest run worth fusing: below it the fused dispatch
// (version check, per-step closure loop) costs more than the interpreter
// iterations it replaces, so the builder emits an empty run and the nodes
// replay interpreted.
const minFuseLen = ir.MinFuseLen

// fusedRun is a superinstruction: a pre-validated straight-line run of
// DTNone nodes executed as one call sequence. end is the first node after
// the run (a dynamic-result node, a DTRet node, a node that failed
// validation, or nil), handed back to the interpreted loop.
type fusedRun struct {
	steps []fusedStep
	end   *node
	ops   uint64 // dynamic instructions covered, for FastOps accounting
}

type fusedStep struct {
	fns  []dynFn
	data []int64
}

// compileProgram compiles dynamic segments into closure chains. With a
// proven replay plan attached (p.Replay, computed by the compiler's static
// fusion analysis), the builder trusts the static table: every block whose
// verdict is LayoutOK — pure-flow, fork and step-end — is compiled with the
// per-operand layout scans skipped, since the plan already proved every
// placeholder sits in a read field; layout-unprovable blocks are left to
// the interpreter. Without a plan (hand-constructed IR, older snapshots)
// every block runs the legacy per-block proof.
func compileProgram(p *ir.Program) []blockCode {
	code := make([]blockCode, len(p.Blocks))
	pl := p.Replay
	trusted := pl != nil && len(pl.Blocks) == len(p.Blocks)
	for bi, blk := range p.Blocks {
		switch {
		case !trusted:
			code[bi] = compileBlock(blk, false)
		case !blk.HasDyn:
			// Empty ok chain so fused runs can span the block.
			code[bi] = blockCode{ok: true}
		case pl.Blocks[bi].LayoutOK:
			code[bi] = compileBlock(blk, true)
		}
	}
	return code
}

// compileBlock compiles one block's dynamic segment. In trusted mode the
// per-operand layout proof is skipped (the static plan proved it); the
// final placeholder-count comparison stays as a cheap integer guard — if
// it ever trips, the plan and the engine disagree and the block safely
// falls back to interpreted replay.
func compileBlock(blk *ir.Block, trusted bool) blockCode {
	fns := make([]dynFn, 0, len(blk.Dyn))
	ph := 0
	for i := range blk.Dyn {
		fn, ok := compileDyn(&blk.Dyn[i], &ph, trusted)
		if !ok {
			return blockCode{}
		}
		fns = append(fns, fn)
	}
	if ph != blk.NPh {
		// The compile-time placeholder assignment disagrees with the
		// recorder's count; replay this block interpreted.
		return blockCode{}
	}
	return blockCode{fns: fns, ok: true}
}

// noPh reports that s is not a recorded placeholder. Operands the
// interpreter never reads must not be placeholders, or the compile-time
// index assignment would diverge from the recorded data layout.
func noPh(s ir.Src) bool { return s.Kind != ir.SrcPh }

func noPhArgs(args []ir.Src) bool {
	for _, a := range args {
		if a.Kind != ir.SrcPh {
			continue
		}
		return false
	}
	return true
}

// reader builds a compile-time-resolved operand getter, assigning the next
// placeholder index when s is a placeholder. Callers must invoke reader in
// the interpreter's operand read order.
func reader(s ir.Src, ph *int) func(*Machine, []int64) int64 {
	switch s.Kind {
	case ir.SrcVReg:
		r := s.VReg
		return func(m *Machine, _ []int64) int64 { return m.vregs[r] }
	case ir.SrcPh:
		i := *ph
		*ph++
		return func(_ *Machine, data []int64) int64 { return data[i] }
	case ir.SrcConst:
		c := s.Const
		return func(*Machine, []int64) int64 { return c }
	}
	return func(*Machine, []int64) int64 { return 0 }
}

// compileDyn compiles one dynamic instruction. It returns ok=false when the
// instruction's placeholder layout cannot be matched to the interpreter's
// read order (the block then replays interpreted). In trusted mode the
// layout scans are skipped: the static replay plan already proved them.
func compileDyn(di *ir.DynInst, ph *int, trusted bool) (dynFn, bool) {
	d := di.D
	switch di.Op {
	case ir.Mov:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		// Flat fast paths for the three operand kinds.
		switch di.A.Kind {
		case ir.SrcVReg:
			a := di.A.VReg
			return func(m *Machine, _ []int64) { m.vregs[d] = m.vregs[a] }, true
		case ir.SrcPh:
			i := *ph
			*ph++
			return func(m *Machine, data []int64) { m.vregs[d] = data[i] }, true
		case ir.SrcConst:
			c := di.A.Const
			return func(m *Machine, _ []int64) { m.vregs[d] = c }, true
		}
		return func(m *Machine, _ []int64) { m.vregs[d] = 0 }, true

	case ir.Bin:
		if !trusted && !noPhArgs(di.Args) {
			return nil, false
		}
		op := token.Kind(di.Sub)
		// Flat fast paths for the hottest operand-kind combinations; the
		// composed form below covers the rest with one closure call per
		// operand and no kind dispatch.
		if di.A.Kind == ir.SrcVReg && di.B.Kind == ir.SrcVReg {
			a, b := di.A.VReg, di.B.VReg
			return func(m *Machine, _ []int64) {
				m.vregs[d] = types.EvalBinary(op, m.vregs[a], m.vregs[b])
			}, true
		}
		if di.A.Kind == ir.SrcVReg && di.B.Kind == ir.SrcConst {
			a, c := di.A.VReg, di.B.Const
			return func(m *Machine, _ []int64) {
				m.vregs[d] = types.EvalBinary(op, m.vregs[a], c)
			}, true
		}
		if di.A.Kind == ir.SrcPh && di.B.Kind == ir.SrcConst {
			i, c := *ph, di.B.Const
			*ph++
			return func(m *Machine, data []int64) {
				m.vregs[d] = types.EvalBinary(op, data[i], c)
			}, true
		}
		if di.A.Kind == ir.SrcPh && di.B.Kind == ir.SrcVReg {
			i, b := *ph, di.B.VReg
			*ph++
			return func(m *Machine, data []int64) {
				m.vregs[d] = types.EvalBinary(op, data[i], m.vregs[b])
			}, true
		}
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		return func(m *Machine, data []int64) {
			m.vregs[d] = types.EvalBinary(op, ra(m, data), rb(m, data))
		}, true

	case ir.Un:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		sub := di.Sub
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) { m.vregs[d] = evalUn(sub, ra(m, data)) }, true

	case ir.Ext:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		bits, signed := di.Imm, di.Sub == 1
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			m.vregs[d] = extend(ra(m, data), bits, signed)
		}, true

	case ir.LoadG:
		if !trusted && (!noPh(di.A) || !noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		g := di.Imm
		return func(m *Machine, _ []int64) { m.vregs[d] = m.globals[g] }, true

	case ir.StoreG:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		g := di.Imm
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) { m.globals[g] = ra(m, data) }, true

	case ir.LoadA:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		ai := di.Imm
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			arr := m.arrays[ai]
			i := ra(m, data)
			if i >= 0 && i < int64(len(arr)) {
				m.vregs[d] = arr[i]
			} else {
				m.vregs[d] = 0
			}
		}, true

	case ir.StoreA:
		if !trusted && !noPhArgs(di.Args) {
			return nil, false
		}
		ai := di.Imm
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		return func(m *Machine, data []int64) {
			arr := m.arrays[ai]
			i := ra(m, data)
			val := rb(m, data)
			if i >= 0 && i < int64(len(arr)) {
				arr[i] = val
			}
		}, true

	case ir.Fetch:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			m.vregs[d] = int64(m.text.FetchWord(uint64(ra(m, data))))
		}, true

	case ir.QOp:
		return compileQOp(di, ph, trusted)

	case ir.CallExt:
		if !trusted && (!noPh(di.A) || !noPh(di.B)) {
			return nil, false
		}
		xi := di.Imm
		rargs := make([]func(*Machine, []int64) int64, len(di.Args))
		for i, a := range di.Args {
			rargs[i] = reader(a, ph)
		}
		return func(m *Machine, data []int64) {
			fn := m.externs[xi]
			args := m.scratch[:len(rargs)]
			for i, ra := range rargs {
				args[i] = ra(m, data)
			}
			if fn != nil {
				m.vregs[d] = fn(args)
			} else {
				m.vregs[d] = 0
			}
		}, true
	}

	// Unknown dynamic op: the interpreter ignores it; compile the same no-op
	// as long as no placeholder would be silently skipped.
	if trusted || (noPh(di.A) && noPh(di.B) && noPhArgs(di.Args)) {
		return func(*Machine, []int64) {}, true
	}
	return nil, false
}

func compileQOp(di *ir.DynInst, ph *int, trusted bool) (dynFn, bool) {
	d := di.D
	qid := di.QID
	switch di.Sub {
	case ir.QSize:
		if !trusted && (!noPh(di.A) || !noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		return func(m *Machine, _ []int64) {
			res := int64(m.queue(qid).Size())
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QPush:
		if !trusted && (!noPh(di.A) || !noPh(di.B)) {
			return nil, false
		}
		rargs := make([]func(*Machine, []int64) int64, len(di.Args))
		for i, a := range di.Args {
			rargs[i] = reader(a, ph)
		}
		return func(m *Machine, data []int64) {
			q := m.queue(qid)
			vals := m.scratch[:len(rargs)]
			for i, ra := range rargs {
				vals[i] = ra(m, data)
			}
			if len(vals) == q.Width() {
				q.Push(vals)
			}
			if d >= 0 {
				m.vregs[d] = 0
			}
		}, true
	case ir.QPop:
		if !trusted && (!noPh(di.A) || !noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		return func(m *Machine, _ []int64) {
			res := m.queue(qid).Pop()
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QGet:
		if !trusted && !noPhArgs(di.Args) {
			return nil, false
		}
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		return func(m *Machine, data []int64) {
			res := m.queue(qid).Get(ra(m, data), rb(m, data))
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QSet:
		// The structural arity guard stays even in trusted mode.
		if len(di.Args) < 1 || (!trusted && !noPhArgs(di.Args[1:])) {
			return nil, false
		}
		ra := reader(di.A, ph)
		rb := reader(di.B, ph)
		rv := reader(di.Args[0], ph)
		return func(m *Machine, data []int64) {
			a, b := ra(m, data), rb(m, data)
			m.queue(qid).Set(a, b, rv(m, data))
			if d >= 0 {
				m.vregs[d] = 0
			}
		}, true
	case ir.QFront:
		if !trusted && (!noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		ra := reader(di.A, ph)
		return func(m *Machine, data []int64) {
			res := m.queue(qid).Front(ra(m, data))
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QFull:
		if !trusted && (!noPh(di.A) || !noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		return func(m *Machine, _ []int64) {
			var res int64
			if m.queue(qid).Full() {
				res = 1
			}
			if d >= 0 {
				m.vregs[d] = res
			}
		}, true
	case ir.QClear:
		if !trusted && (!noPh(di.A) || !noPh(di.B) || !noPhArgs(di.Args)) {
			return nil, false
		}
		return func(m *Machine, _ []int64) {
			m.queue(qid).Clear()
			if d >= 0 {
				m.vregs[d] = 0
			}
		}, true
	}
	// Unknown queue sub-op: the interpreter computes res=0 and writes it.
	if !trusted && (!noPh(di.A) || !noPh(di.B) || !noPhArgs(di.Args)) {
		return nil, false
	}
	return func(m *Machine, _ []int64) {
		if d >= 0 {
			m.vregs[d] = 0
		}
	}, true
}

// buildFused assembles the superinstruction starting at n: the maximal
// (length-capped) straight-line run of DTNone nodes, each validated exactly
// as the interpreted loop would validate it before execution. The run ends
// before the first node that is nil, out of range, uncompiled, fork- or
// ret-terminated, carries the wrong placeholder count, or needs an
// unregistered extern — the interpreted loop handles that node, detecting
// any corruption with the identical fault.
func (m *Machine) buildFused(n *node) *fusedRun {
	fr := &fusedRun{}
	for len(fr.steps) < maxFuseLen {
		if n == nil || n.blockID < 0 || int(n.blockID) >= len(m.p.Blocks) {
			break
		}
		bc := &m.code[n.blockID]
		blk := m.p.Blocks[n.blockID]
		if !bc.ok || blk.DynTerm != ir.DTNone || len(n.data) != blk.NPh {
			break
		}
		ok := true
		for _, xi := range m.blkExt[n.blockID] {
			if m.externs[xi] == nil {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		fr.steps = append(fr.steps, fusedStep{fns: bc.fns, data: n.data})
		fr.ops += uint64(len(blk.Dyn))
		n = n.next
	}
	fr.end = n
	if len(fr.steps) < minFuseLen {
		return &fusedRun{} // too short to amortize: replay interpreted
	}
	return fr
}
