package rt

import "facile/internal/lang/ir"

// This file builds fused runs: a straight-line run of pure-flow (DTNone)
// nodes that the replayer dispatches in one go, running each node's replay
// segment (slow.go) without the per-node checks, which the builder has
// already applied.
//
// Correctness contract:
//
//   - A node joins a run only after it passed the per-node path's checks
//     (block range, placeholder count, registered externs). A run ends
//     before the first node that fails them, so the per-node loop
//     re-detects the corruption with the identical fault kind at the
//     identical node count. Misses can only happen at dynamic-result
//     nodes, which are never inside a run.
//
//   - Fused state is derived, not memoized: it is never serialized
//     (snapshot/warmio enumerate fields explicitly), is rebuilt lazily
//     after warm-cache adoption, and is discarded when the owning entry's
//     cver moves (fault injection, invalidation) so a mutated chain is
//     always re-validated before its next replay.

// maxFuseLen bounds one run's node count. Longer straight-line chains split
// into consecutive runs; a cycle in a corrupted graph therefore still
// accumulates m.nodes toward the replay watchdog instead of hanging the
// builder. Shared with the compiler's static replay planner, whose MaxRun
// figures are capped at the same bound.
const maxFuseLen = ir.MaxFuseLen

// minFuseLen is the shortest run worth fusing: below it the fused dispatch
// (version check, per-step loop) costs more than the per-node iterations it
// replaces, so the builder emits an empty run and the nodes replay one at a
// time.
const minFuseLen = ir.MinFuseLen

// fusedRun is a pre-validated straight-line run of DTNone nodes. end is the
// first node after the run (a dynamic-result node, a DTRet node, a node
// that failed validation, or nil), handed back to the per-node loop.
type fusedRun struct {
	steps []fusedStep
	end   *node
	ops   uint64 // dynamic instructions covered, for FastOps accounting
}

// fusedStep is one node of a run: its block's replay segment and the
// node's placeholder values.
type fusedStep struct {
	seg  int32
	data []int64
}

// buildFused assembles the run starting at n: the maximal (length-capped)
// straight-line run of DTNone nodes, each validated exactly as the per-node
// loop would validate it before execution. The run ends before the first
// node that is nil, out of range, fork- or ret-terminated, carries the
// wrong placeholder count, or needs an unregistered extern — the per-node
// loop handles that node, detecting any corruption with the identical
// fault.
func (m *Machine) buildFused(n *node) *fusedRun {
	fr := &fusedRun{}
	for len(fr.steps) < maxFuseLen {
		if n == nil || n.blockID < 0 || int(n.blockID) >= len(m.p.Blocks) {
			break
		}
		blk := m.p.Blocks[n.blockID]
		if blk.DynTerm != ir.DTNone || len(n.data) != blk.NPh {
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
		fr.steps = append(fr.steps, fusedStep{seg: m.slow.dyn[n.blockID], data: n.data})
		fr.ops += uint64(len(blk.Dyn))
		n = n.next
	}
	fr.end = n
	if len(fr.steps) < minFuseLen {
		return &fusedRun{} // too short to amortize: replay node by node
	}
	return fr
}
