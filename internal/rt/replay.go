package rt

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
	"facile/internal/obs"
)

// This file is the fast/residual simulator and its recovery paths.
//
// Recorded state is checked where it could have gone bad, not every time
// it is used:
//
//   - Per node, every replay checks what a corrupt chain could break before
//     running the block: the link is non-nil, the node count is under the
//     watchdog, the block ID is in range, the placeholder count matches the
//     block, and every extern the block calls is registered. A block that
//     passes runs its compiled closure chain (compile.go) when it has one,
//     fork and step-end blocks included; execDyn interprets only blocks
//     whose layout is unproven and every block under -replay interp.
//   - A step-end node's successor key is vetted by validKey once per
//     owning entry version (node.keyVer against centry.keyMark). Untrusted
//     bytes enter only through warm load (LoadWarmCache builds fresh,
//     unvetted nodes), snapshot restore (LoadState vets the step key; the
//     action cache is not restored) and fault injection (which bumps cver);
//     invalidation bumps cver too. Each of those forces a re-vet. In-memory
//     adoption (AdoptCache) hands over nodes this process recorded, marks
//     included.
//   - CallExt and QPush pass their arguments in the machine's scratch slice
//     (Machine.scratch), so a warm replay allocates nothing.

// replayFrom is the fast/residual simulator: it walks recorded action
// nodes, executing only each block's dynamic segment (with run-time static
// placeholder values supplied from the cache) and verifying every dynamic
// result against the recorded forks. A value with no recorded successor is
// an action cache miss: the slow simulator is restored from the entry's
// key and re-run in recovery mode over the replayed path.
//
// Structural faults — a severed chain, an out-of-range block reference, a
// truncated placeholder record, a runaway node count, or an unparseable
// successor key — never panic: the offending entry is invalidated, the
// partial replay is discarded, and the step finishes on the slow simulator
// (degradeStep / rekeyStep). m.nodes tracks how many action nodes the
// replay completed this step, so the degraded re-run knows exactly where to
// switch from skipping already-applied dynamic work to running live.
func (m *Machine) replayFrom(e *centry, maxSteps uint64) error {
	m.stepKey = e.key
	m.path = m.path[:0]
	m.nodes = 0
	n := e.first
	for {
		if n == nil {
			// Recording always seals a step with a DTRet node; a nil link
			// mid-chain means the entry is corrupt.
			m.fault(faults.BrokenChain, "nil action link before end of step")
			return m.degradeStep(e)
		}
		if m.compiled {
			// Compiled fast path: execute the superinstruction headed at n —
			// a pre-validated straight-line run of DTNone nodes — as one
			// fused call sequence. Built lazily per head node and discarded
			// whenever the entry's cver moves (injection, invalidation).
			fr := n.fused
			if fr == nil || n.fusedVer != e.cver {
				fr = m.buildFused(n)
				n.fused = fr
				n.fusedVer = e.cver
				if len(fr.steps) > 0 {
					m.cFusedRuns.Inc()
				}
			}
			if k := uint64(len(fr.steps)); k > 0 && m.nodes+k <= m.opt.MaxReplayNodes {
				// The bound keeps the watchdog exact: the interpreted loop
				// executes a node only while m.nodes < MaxReplayNodes, so a
				// run is dispatched only if its last node would still pass
				// that check; otherwise the nodes replay interpreted and the
				// watchdog trips at the identical count.
				for i := range fr.steps {
					st := &fr.steps[i]
					for _, fn := range st.fns {
						fn(m, st.data)
					}
				}
				m.stats.FastOps += fr.ops
				m.nodes += k
				m.cFusedDisp.Inc()
				m.cFusedNodes.Add(k)
				n = fr.end
				continue
			}
		}
		if m.nodes >= m.opt.MaxReplayNodes {
			// A cycle in a corrupted graph, or a runaway step.
			m.fault(faults.WatchdogReplay,
				fmt.Sprintf("replayed %d action nodes in one step", m.nodes))
			m.stats.WatchdogTrips++
			return m.degradeStep(e)
		}
		if n.blockID < 0 || int(n.blockID) >= len(m.p.Blocks) {
			m.fault(faults.BadAction,
				fmt.Sprintf("action references block %d of %d", n.blockID, len(m.p.Blocks)))
			return m.degradeStep(e)
		}
		blk := m.p.Blocks[n.blockID]
		if len(n.data) != blk.NPh {
			m.fault(faults.TruncatedData,
				fmt.Sprintf("action carries %d placeholder values, block %d needs %d",
					len(n.data), n.blockID, blk.NPh))
			return m.degradeStep(e)
		}
		for _, xi := range m.blkExt[n.blockID] {
			if m.externs[xi] == nil {
				m.fault(faults.BadAction,
					fmt.Sprintf("action needs unregistered extern %q", m.p.Externs[xi]))
				return m.degradeStep(e)
			}
		}
		if bc := &m.code[n.blockID]; m.compiled && bc.ok {
			// The checks above are exactly the ones buildFused applies, so
			// a compiled block reads n.data without re-validating it.
			for _, fn := range bc.fns {
				fn(m, n.data)
			}
		} else {
			ph := 0
			for i := range blk.Dyn {
				m.execDyn(&blk.Dyn[i], n.data, &ph)
			}
		}
		m.stats.FastOps += uint64(len(blk.Dyn))
		switch blk.DynTerm {
		case ir.DTNone:
			n = n.next
			m.nodes++
		case ir.DTBr:
			v := int64(0)
			if m.vregs[blk.TermSrc.VReg] != 0 {
				v = 1
			}
			m.path = append(m.path, v)
			next, ok := n.findFork(v)
			if !ok {
				return m.missRecover(n, e)
			}
			n = next
			m.nodes++
		case ir.DTSetArg, ir.DTPin:
			v := m.vregs[blk.TermSrc.VReg]
			m.path = append(m.path, v)
			next, ok := n.findFork(v)
			if !ok {
				return m.missRecover(n, e)
			}
			n = next
			m.nodes++
		case ir.DTRet:
			// Vet the recorded successor key before adopting it: a corrupt
			// key caught here is recoverable (rekeyStep rebuilds it from the
			// replayed path); one caught after adoption is not. A key already
			// vetted at the entry's current cver is not parsed again.
			if n.keyVer != e.keyMark() {
				if !validKey(n.nextKey, len(m.argI), m.argQ) {
					m.fault(faults.CorruptKey, "recorded successor key does not parse")
					return m.rekeyStep(e)
				}
				n.keyVer = e.keyMark()
			}
			m.stats.Replays++
			m.obs.Event(obs.EvStepReplayed, m.nodes)
			m.hStepNodes.Observe(m.nodes)
			m.curKey = n.nextKey
			m.path = m.path[:0]
			m.nodes = 0
			if m.stop != nil && m.stop(m) {
				m.done = true
				return nil
			}
			if maxSteps > 0 && m.stats.SlowSteps+m.stats.Replays >= maxSteps {
				return nil
			}
			if m.stepHook() {
				// Fault injection / self-check sampling are per-step
				// policies applied by the Run loop; hand each chained step
				// back instead of following the link directly.
				return nil
			}
			if n.link == nil || n.linkGen != m.ac.g.Gen {
				le := m.ac.get(n.nextKey)
				if le == nil {
					// step-boundary miss: Run's loop restores the slow
					// simulator from curKey
					return nil
				}
				n.link = le
				n.linkGen = m.ac.g.Gen
			}
			e = n.link
			m.stepKey = e.key
			n = e.first
		default:
			m.fault(faults.BadAction,
				fmt.Sprintf("unknown dynamic terminal %d", blk.DynTerm))
			return m.degradeStep(e)
		}
	}
}

// missRecover implements the paper's miss recovery: restore main's
// arguments from the entry's index key, attach a new fork for the
// unexpected dynamic result, and re-run the slow simulator in recovery
// mode consuming the replayed path. A recovery that disagrees with the
// replayed path (overrun or incomplete consumption) is a fault: the entry
// is invalidated and the half-recorded fork is dropped.
func (m *Machine) missRecover(n *node, e *centry) error {
	if len(m.path) == 0 {
		// Defensive: every dynamic-result terminator appends its value to
		// m.path before the fork lookup, so an empty path here means the
		// recorded chain and the replay disagree about the step's dynamic
		// structure. Recovery alignment needs the missing value, so this is
		// a structural fault, not a value miss: degrade instead of panicking
		// on untrusted cache data.
		m.fault(faults.BrokenChain, "mid-step miss with no replayed dynamic values")
		return m.degradeStep(e)
	}
	m.stats.Misses++
	m.obs.Event(obs.EvMidStepMiss, m.nodes)
	if !parseKey(m.stepKey, m.argI, m.argQ) {
		return m.degradeLost(e, "unparseable entry key at miss recovery")
	}
	v := m.path[len(m.path)-1]
	n.forks = append(n.forks, nfork{val: v})
	m.ac.charge(e, forkBytes)
	rec := &recorder{m: m, ent: e, tail: &n.forks[len(n.forks)-1].next}
	cur := &rcursor{path: m.path}
	if err := m.runStepSlow(rec, cur); err != nil {
		return err
	}
	if cur.overrun || cur.incomplete {
		kind := faults.RecoveryIncomplete
		detail := "recovery finished without reaching the miss point"
		if cur.overrun {
			kind = faults.RecoveryOverrun
			detail = "recovery cursor overran the replayed path"
		}
		m.fault(kind, detail)
		m.ac.invalidate(e)
		m.stats.DegradedSteps++
		// Drop the half-recorded fork so the dead entry can't replay it.
		n.forks = n.forks[:len(n.forks)-1]
	}
	return nil
}

// degradeStep abandons a partial replay after a structural fault: the
// offending entry is invalidated, main's arguments are restored from the
// entry's key, and the step re-runs in node-cursor recovery mode — skipping
// the dynamic blocks the replay already completed, consuming the dynamic
// values it produced, and going live at the fault point — so the step
// finishes on the always-correct slow path, unrecorded.
func (m *Machine) degradeStep(e *centry) error {
	m.stats.DegradedSteps++
	m.ac.invalidate(e)
	if !parseKey(m.stepKey, m.argI, m.argQ) {
		m.fault(faults.CorruptKey, "unparseable entry key during degradation")
		return m.runStepSlow(nil, nil)
	}
	cur := &rcursor{path: m.path, useNodes: true, nodes: m.nodes}
	if cur.nodes == 0 {
		cur.live = true // fault before any completed node: run fully live
	}
	if err := m.runStepSlow(nil, cur); err != nil {
		return err
	}
	if cur.overrun {
		m.fault(faults.RecoveryOverrun, "degraded re-run overran the replayed path")
	} else if cur.incomplete {
		m.fault(faults.RecoveryIncomplete, "degraded re-run ended before the fault point")
	}
	return nil
}

// rekeyStep handles a corrupt successor key discovered at a replayed step's
// end. The step's dynamic effects are already (correctly) applied, so the
// slow simulator re-runs it with a cursor that never goes live: run-time
// static code recomputes the argument state, the replayed path supplies the
// dynamic results, and the Ret rebuilds the successor key the recording
// lost.
func (m *Machine) rekeyStep(e *centry) error {
	m.stats.DegradedSteps++
	m.ac.invalidate(e)
	if !parseKey(m.stepKey, m.argI, m.argQ) {
		m.fault(faults.CorruptKey, "unparseable entry key during rekey")
		return m.runStepSlow(nil, nil)
	}
	cur := &rcursor{path: m.path, useNodes: true, rekey: true}
	if err := m.runStepSlow(nil, cur); err != nil {
		return err
	}
	if cur.overrun {
		m.fault(faults.RecoveryOverrun, "rekey re-run overran the replayed path")
	}
	return nil
}

// degradeLost is the last-resort fallback when even the entry's own key is
// unparseable: recovery alignment is impossible, so fault, invalidate, and
// finish the step live from the current (possibly stale) arguments rather
// than crash. Unreachable unless cache memory is corrupted between
// validation and use.
func (m *Machine) degradeLost(e *centry, detail string) error {
	m.fault(faults.CorruptKey, detail)
	m.ac.invalidate(e)
	m.stats.DegradedSteps++
	return m.runStepSlow(nil, nil)
}

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
