package compile

import "facile/internal/lang/ir"

// This file is the whole-program fusion/replay dataflow tier: a static,
// compile-time computation of what the replay engine's fused-run builder
// can achieve.
//
// For every block it computes
//
//   - the action class (pure-flow / fork / step-end), from the dynamic
//     terminator the BTA extracted;
//
//   - the maximal pure-flow run threading through the block: the static
//     upper bound on the fused run a replay chain can form here, computed
//     over the dynamic-successor graph (the first blocks with dynamic
//     segments reachable along rt-static control flow).
//
// The verdicts ride on the Program as ir.ReplayPlan (consumed by rt); the
// richer evidence — successor edges, loop membership — feeds the fvet
// FV07xx analyzers.

// BlockReplayEvidence is the per-block evidence behind a plan verdict.
type BlockReplayEvidence struct {
	Succ []int // dynamic-successor blocks (first HasDyn blocks downstream)
	Hot  bool  // block sits inside a CFG cycle (statically hot)
}

// ReplayEvidence pairs the proven plan with its per-block evidence for
// the fvet fusion analyzers.
type ReplayEvidence struct {
	Plan   *ir.ReplayPlan
	Blocks []BlockReplayEvidence
}

// classOf maps a block's extracted dynamic terminator to its replay class.
func classOf(blk *ir.Block) ir.ReplayClass {
	if !blk.HasDyn {
		return ir.ReplayNoDyn
	}
	switch blk.DynTerm {
	case ir.DTBr, ir.DTSetArg, ir.DTPin:
		return ir.ReplayFork
	case ir.DTRet:
		return ir.ReplayRet
	}
	return ir.ReplayPure
}

// dynSuccessors computes, for block bi, the first blocks with dynamic
// segments reachable from its CFG successors along rt-static control flow
// (paths through blocks replay never records). Cycles of dyn-free blocks
// terminate via the visited set.
func dynSuccessors(p *ir.Program, bi int) []int {
	var out []int
	seen := make(map[int]bool)
	added := make(map[int]bool)
	var stack []int
	push := func(b *ir.Block) {
		for _, s := range b.Succ {
			if s >= 0 && s < len(p.Blocks) && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	push(p.Blocks[bi])
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := p.Blocks[id]
		if b.HasDyn {
			if !added[id] {
				added[id] = true
				out = append(out, id)
			}
			continue
		}
		push(b)
	}
	return out
}

// hotBlocks marks every block that participates in a CFG cycle, via
// Tarjan's strongly-connected components.
func hotBlocks(p *ir.Program) []bool {
	n := len(p.Blocks)
	hot := make([]bool, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type frame struct {
		v, si int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.si < len(p.Blocks[v].Succ) {
				w := p.Blocks[v].Succ[f.si]
				f.si++
				if w < 0 || w >= n {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				u := frames[len(frames)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				// Pop the component; multi-node components are cycles, and a
				// single node is hot only with a self-edge.
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				cyclic := len(comp) > 1
				if !cyclic {
					for _, s := range p.Blocks[v].Succ {
						if s == v {
							cyclic = true
						}
					}
				}
				if cyclic {
					for _, w := range comp {
						hot[w] = true
					}
				}
			}
		}
	}
	return hot
}

// buildReplayPlan computes the whole-program fusion/replay table: per-block
// classes, the dynamic-successor graph, and maximal pure-flow run lengths. The plan is what engines consume; the evidence
// feeds diagnostics.
func buildReplayPlan(p *ir.Program) (*ir.ReplayPlan, *ReplayEvidence) {
	n := len(p.Blocks)
	plan := &ir.ReplayPlan{Blocks: make([]ir.BlockReplay, n)}
	ev := &ReplayEvidence{Plan: plan, Blocks: make([]BlockReplayEvidence, n)}

	for bi, blk := range p.Blocks {
		br := &plan.Blocks[bi]
		br.Class = classOf(blk)
		br.DynOps = len(blk.Dyn)
		if br.Class == ir.ReplayNoDyn {
			continue
		}
		ev.Blocks[bi].Succ = dynSuccessors(p, bi)
		plan.DynBlocks++
		plan.DynOps += len(blk.Dyn)
		if br.Class == ir.ReplayPure {
			plan.FusableBlocks++
			plan.FusableOps += len(blk.Dyn)
		}
	}

	hot := hotBlocks(p)
	for bi := range ev.Blocks {
		ev.Blocks[bi].Hot = hot[bi]
	}

	// Maximal pure-flow runs over the dynamic-successor graph: a DFS with
	// cycle capping. A back edge inside a fusable region means the engine's
	// length cap, not the graph, bounds the run.
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]byte, n)
	runLen := make([]int, n)
	var walk func(bi int) int
	walk = func(bi int) int {
		if !plan.Fusable(bi) {
			return 0
		}
		switch state[bi] {
		case visiting:
			return ir.MaxFuseLen // cycle: the cap bounds the run
		case done:
			return runLen[bi]
		}
		state[bi] = visiting
		best := 0
		for _, s := range ev.Blocks[bi].Succ {
			if v := walk(s); v > best {
				best = v
			}
		}
		r := best + 1
		if r > ir.MaxFuseLen {
			r = ir.MaxFuseLen
		}
		state[bi] = done
		runLen[bi] = r
		return r
	}
	for bi := range p.Blocks {
		plan.Blocks[bi].MaxRun = walk(bi)
	}
	return plan, ev
}
