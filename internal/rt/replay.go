package rt

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
	"facile/internal/memocache"
	"facile/internal/obs"
)

// This file is the fast/residual simulator and its recovery paths. It runs
// each recorded node's replay segment (see slow.go) with runDyn, one node
// at a time or, for straight-line runs of pure-flow nodes, as one fused
// run (compile.go).
//
// Recorded state is checked where it could have gone bad, not every time
// it is used:
//
//   - Per node, every replay checks what a corrupt chain could break before
//     running the block: the link is non-nil, the node count is under the
//     watchdog, the block ID is in range, the placeholder count matches the
//     block, and every extern the block calls is registered. Only then does
//     the node's data fill the placeholder window, so it always fits. A
//     fused run holds only nodes that passed the same checks.
//   - A step-end node's successor key is vetted by validKey once per
//     owning entry version (node.keyVer against Entry.KeyMark). Untrusted
//     bytes enter only through warm load (LoadWarmCache builds fresh,
//     unvetted nodes), snapshot restore (LoadState vets the step key; the
//     action cache is not restored) and fault injection (which bumps CVer);
//     invalidation bumps CVer too. Each of those forces a re-vet. In-memory
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
func (m *Machine) replayFrom(e *memocache.Entry[node], maxSteps uint64) error {
	m.stepKey = e.Key
	m.path = m.path[:0]
	m.nodes = 0
	n := e.First
	for {
		if n == nil {
			// Recording always seals a step with a DTRet node; a nil link
			// mid-chain means the entry is corrupt.
			m.g.Fault(faults.BrokenChain, "nil action link before end of step")
			return m.degradeStep(e)
		}
		// Run the fused run headed at n — a pre-validated straight-line run
		// of DTNone nodes — in one go. It is built lazily per head node and
		// discarded whenever the entry's CVer moves (injection,
		// invalidation).
		fr := n.fused
		if fr == nil || n.fusedVer != e.CVer {
			fr = m.buildFused(n)
			n.fused = fr
			n.fusedVer = e.CVer
			if len(fr.steps) > 0 {
				m.cFusedRuns.Inc()
			}
		}
		if k := uint64(len(fr.steps)); k > 0 && m.nodes+k <= m.opt.MaxReplayNodes {
			// The bound keeps the watchdog exact: the per-node path runs a
			// node only while m.nodes < MaxReplayNodes, so a run is
			// dispatched only if its last node would still pass that check;
			// otherwise its nodes replay one at a time and the watchdog
			// trips at the identical count.
			for i := range fr.steps {
				st := &fr.steps[i]
				m.fillWindow(st.data)
				m.runDyn(st.seg)
			}
			m.stats.FastOps += fr.ops
			m.nodes += k
			m.cFusedDisp.Inc()
			m.cFusedNodes.Add(k)
			n = fr.end
			continue
		}
		if m.nodes >= m.opt.MaxReplayNodes {
			// A cycle in a corrupted graph, or a runaway step.
			m.g.Fault(faults.WatchdogReplay,
				fmt.Sprintf("replayed %d action nodes in one step", m.nodes))
			m.g.WatchdogTrips++
			return m.degradeStep(e)
		}
		if n.blockID < 0 || int(n.blockID) >= len(m.p.Blocks) {
			m.g.Fault(faults.BadAction,
				fmt.Sprintf("action references block %d of %d", n.blockID, len(m.p.Blocks)))
			return m.degradeStep(e)
		}
		blk := m.p.Blocks[n.blockID]
		if len(n.data) != blk.NPh {
			m.g.Fault(faults.TruncatedData,
				fmt.Sprintf("action carries %d placeholder values, block %d needs %d",
					len(n.data), n.blockID, blk.NPh))
			return m.degradeStep(e)
		}
		for _, xi := range m.blkExt[n.blockID] {
			if m.externs[xi] == nil {
				m.g.Fault(faults.BadAction,
					fmt.Sprintf("action needs unregistered extern %q", m.p.Externs[xi]))
				return m.degradeStep(e)
			}
		}
		m.fillWindow(n.data)
		m.runDyn(m.slow.dyn[n.blockID])
		m.stats.FastOps += uint64(len(blk.Dyn))
		switch blk.DynTerm {
		case ir.DTNone:
			n = n.Next
			m.nodes++
		case ir.DTBr:
			v := int64(0)
			if m.vregs[blk.TermSrc.VReg] != 0 {
				v = 1
			}
			m.path = append(m.path, v)
			next, ok := n.FindFork(uint64(v))
			if !ok {
				return m.missRecover(n, e)
			}
			n = next
			m.nodes++
		case ir.DTSetArg, ir.DTPin:
			v := m.vregs[blk.TermSrc.VReg]
			m.path = append(m.path, v)
			next, ok := n.FindFork(uint64(v))
			if !ok {
				return m.missRecover(n, e)
			}
			n = next
			m.nodes++
		case ir.DTRet:
			// Vet the recorded successor key before adopting it: a corrupt
			// key caught here is recoverable (rekeyStep rebuilds it from the
			// replayed path); one caught after adoption is not. A key already
			// vetted at the entry's current CVer is not parsed again.
			if n.keyVer != e.KeyMark() {
				if !validKey(n.NextKey, len(m.argI), m.argQ) {
					m.g.Fault(faults.CorruptKey, "recorded successor key does not parse")
					return m.rekeyStep(e)
				}
				n.keyVer = e.KeyMark()
			}
			m.stats.Replays++
			m.obs.Event(obs.EvStepReplayed, m.nodes)
			m.hStepNodes.Observe(m.nodes)
			m.curKey = n.NextKey
			m.path = m.path[:0]
			m.nodes = 0
			if m.stop != nil && m.stop(m) {
				m.done = true
				return nil
			}
			if maxSteps > 0 && m.stats.SlowSteps+m.stats.Replays >= maxSteps {
				return nil
			}
			if m.g.Hooked() {
				// Fault injection / self-check sampling are per-step
				// policies applied by the Run loop; hand each chained step
				// back instead of following the link directly.
				return nil
			}
			if n.Link == nil || n.LinkGen != m.ac.G.Gen {
				le := m.ac.Get(n.NextKey)
				if le == nil {
					// step-boundary miss: Run's loop restores the slow
					// simulator from curKey
					return nil
				}
				n.Link = le
				n.LinkGen = m.ac.G.Gen
			}
			e = n.Link
			m.stepKey = e.Key
			n = e.First
		default:
			m.g.Fault(faults.BadAction,
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
func (m *Machine) missRecover(n *node, e *memocache.Entry[node]) error {
	if len(m.path) == 0 {
		// Defensive: every dynamic-result terminator appends its value to
		// m.path before the fork lookup, so an empty path here means the
		// recorded chain and the replay disagree about the step's dynamic
		// structure. Recovery alignment needs the missing value, so this is
		// a structural fault, not a value miss: degrade instead of panicking
		// on untrusted cache data.
		m.g.Fault(faults.BrokenChain, "mid-step miss with no replayed dynamic values")
		return m.degradeStep(e)
	}
	m.stats.Misses++
	m.obs.Event(obs.EvMidStepMiss, m.nodes)
	if !parseKey(m.stepKey, m.argI, m.argQ) {
		return m.degradeLost(e, "unparseable entry key at miss recovery")
	}
	v := m.path[len(m.path)-1]
	tail := n.AddFork(uint64(v))
	m.ac.Charge(e, memocache.ForkBytes)
	rec := &recorder{m: m, ent: e, tail: tail}
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
		m.g.Fault(kind, detail)
		m.ac.Invalidate(e)
		m.g.DegradedSteps++
		// Drop the half-recorded fork so the dead entry can't replay it.
		n.Forks = n.Forks[:len(n.Forks)-1]
	}
	return nil
}

// degradeStep abandons a partial replay after a structural fault: the
// offending entry is invalidated, main's arguments are restored from the
// entry's key, and the step re-runs in node-cursor recovery mode — skipping
// the dynamic blocks the replay already completed, consuming the dynamic
// values it produced, and going live at the fault point — so the step
// finishes on the always-correct slow path, unrecorded.
func (m *Machine) degradeStep(e *memocache.Entry[node]) error {
	m.g.DegradedSteps++
	m.ac.Invalidate(e)
	if !parseKey(m.stepKey, m.argI, m.argQ) {
		m.g.Fault(faults.CorruptKey, "unparseable entry key during degradation")
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
		m.g.Fault(faults.RecoveryOverrun, "degraded re-run overran the replayed path")
	} else if cur.incomplete {
		m.g.Fault(faults.RecoveryIncomplete, "degraded re-run ended before the fault point")
	}
	return nil
}

// rekeyStep handles a corrupt successor key discovered at a replayed step's
// end. The step's dynamic effects are already (correctly) applied, so the
// slow simulator re-runs it with a cursor that never goes live: run-time
// static code recomputes the argument state, the replayed path supplies the
// dynamic results, and the Ret rebuilds the successor key the recording
// lost.
func (m *Machine) rekeyStep(e *memocache.Entry[node]) error {
	m.g.DegradedSteps++
	m.ac.Invalidate(e)
	if !parseKey(m.stepKey, m.argI, m.argQ) {
		m.g.Fault(faults.CorruptKey, "unparseable entry key during rekey")
		return m.runStepSlow(nil, nil)
	}
	cur := &rcursor{path: m.path, useNodes: true, rekey: true}
	if err := m.runStepSlow(nil, cur); err != nil {
		return err
	}
	if cur.overrun {
		m.g.Fault(faults.RecoveryOverrun, "rekey re-run overran the replayed path")
	}
	return nil
}

// degradeLost is the last-resort fallback when even the entry's own key is
// unparseable: recovery alignment is impossible, so fault, invalidate, and
// finish the step live from the current (possibly stale) arguments rather
// than crash. Unreachable unless cache memory is corrupted between
// validation and use.
func (m *Machine) degradeLost(e *memocache.Entry[node], detail string) error {
	m.g.Fault(faults.CorruptKey, detail)
	m.ac.Invalidate(e)
	m.g.DegradedSteps++
	return m.runStepSlow(nil, nil)
}

// fillWindow copies a node's placeholder values into the placeholder
// window. The caller has checked that data holds the block's NPh values,
// which the window fits. It is a loop rather than copy because nodes carry
// a few values each, fewer than a memmove call pays for.
func (m *Machine) fillWindow(data []int64) {
	w := m.vregs[m.slow.window:]
	w = w[:len(data)]
	for i, v := range data {
		w[i] = v
	}
}

// runDyn runs the replay segment that starts at record pc, up to its sEnd.
// Its operation arms are the slow loop's, record for record
// (TestDecodedOpsMatchReference keeps the two in agreement); the caller
// has filled the placeholder window.
func (m *Machine) runDyn(pc int32) {
	vr := m.vregs
	ops := m.slow.ops
	for {
		op := &ops[pc]
		pc++
		switch op.code {
		case sEnd:
			return
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
			args := m.scratch[:op.b]
			for j, r := range m.slow.args[op.a : op.a+op.b] {
				args[j] = vr[r]
			}
			vr[op.d] = m.externs[op.imm](args)
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
		}
	}
}
