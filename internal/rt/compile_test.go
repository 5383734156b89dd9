package rt

import (
	"testing"

	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/memocache"
)

// minProgram is the smallest runnable program: one empty block with a Ret
// terminator, no parameters, no globals.
func minProgram() *ir.Program {
	return &ir.Program{
		Blocks: []*ir.Block{{ID: 0, Term: ir.Inst{Op: ir.Ret}}},
	}
}

// TestMissRecoverEmptyPathDegrades drives the defensive guard in
// missRecover directly: every dynamic-result terminator appends its value
// to m.path before the fork lookup, so only corrupted cache data can
// present a mid-step miss with an empty path. The guard must degrade the
// step as a structural fault — never index path[len-1], never count a
// value miss.
func TestMissRecoverEmptyPathDegrades(t *testing.T) {
	m := New(minProgram(), nil, Options{Memoize: true})
	m.curKey = buildKey(m.argI, m.argQ)
	m.started = true
	e := &memocache.Entry[node]{Key: m.curKey, First: &node{blockID: 0}}
	m.ac.Put(e)
	m.stepKey = e.Key
	m.path = m.path[:0]
	m.nodes = 0
	if err := m.missRecover(e.First, e); err != nil {
		t.Fatalf("missRecover: %v", err)
	}
	st := m.Stats()
	if f := m.LastFault(); f == nil || f.Kind != faults.BrokenChain {
		t.Fatalf("fault = %v, want BrokenChain", m.LastFault())
	}
	if st.DegradedSteps != 1 || st.Invalidations != 1 {
		t.Errorf("expected one degraded step and one invalidation: %+v", st)
	}
	if st.Misses != 0 {
		t.Errorf("a structural fault must not count as a value miss: %+v", st)
	}
}

// forkRetProgram is one step of a main with no arguments (so its key is
// ""): a fork block that stores 7 to global 0, calls extern "tick" and
// tests v0, two pure-flow blocks, and a step-end block that stores 9 to
// global 1.
func forkRetProgram() *ir.Program {
	c := func(v int64) ir.Src { return ir.Src{Kind: ir.SrcConst, Const: v} }
	return &ir.Program{
		NumVReg: 4,
		Globals: []ir.GlobalDecl{{Name: "g0"}, {Name: "g1"}},
		Externs: []string{"tick"},
		Blocks: []*ir.Block{
			{ID: 0, HasDyn: true, Dyn: []ir.DynInst{
				{Op: ir.StoreG, Imm: 0, A: c(7)},
				{Op: ir.CallExt, Imm: 0, D: 3},
			}, DynTerm: ir.DTBr, TermSrc: ir.Src{Kind: ir.SrcVReg}, Term: ir.Inst{Op: ir.Br}},
			{ID: 1, HasDyn: true, Dyn: []ir.DynInst{{Op: ir.Mov, D: 1, A: c(1)}}},
			{ID: 2, HasDyn: true, Dyn: []ir.DynInst{{Op: ir.Mov, D: 2, A: c(2)}}},
			{ID: 3, HasDyn: true, Dyn: []ir.DynInst{{Op: ir.StoreG, Imm: 1, A: c(9)}},
				DynTerm: ir.DTRet, Term: ir.Inst{Op: ir.Ret}},
		},
		Replay: &ir.ReplayPlan{
			Blocks: []ir.BlockReplay{
				{Class: ir.ReplayFork, DynOps: 2},
				{Class: ir.ReplayPure, MaxRun: 2, DynOps: 1},
				{Class: ir.ReplayPure, MaxRun: 1, DynOps: 1},
				{Class: ir.ReplayRet, DynOps: 1},
			},
			DynBlocks: 4, FusableBlocks: 2, DynOps: 5, FusableOps: 2,
		},
	}
}

// TestFusedStateDiscardedOnCverBump pins the derived-state contract: one
// replay runs the fork block's segment, builds the (empty) run headed at
// the fork and the fused pure tail, and marks the step-end key vetted. All
// of that is valid only while the owning entry's CVer is unchanged, and
// both invalidation and fault injection move it.
func TestFusedStateDiscardedOnCverBump(t *testing.T) {
	m := New(forkRetProgram(), nil, Options{Memoize: true, Inject: faults.NewInjector(1, 0)})
	forkRuns := 0
	if err := m.RegisterExtern("tick", func([]int64) int64 { forkRuns++; return 0 }); err != nil {
		t.Fatal(err)
	}
	n3 := &node{blockID: 3}
	n2 := &node{blockID: 2}
	n2.Next = n3
	n1 := &node{blockID: 1}
	n1.Next = n2
	n0 := &node{blockID: 0}
	*n0.AddFork(0) = n1
	e := &memocache.Entry[node]{First: n0}
	m.ac.Put(e)
	if err := m.replayFrom(e, 1); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Replays != 1 || st.Faults != 0 {
		t.Fatalf("want one clean replay: %+v", st)
	}
	if forkRuns != 1 || m.globals[0] != 7 || m.globals[1] != 9 {
		t.Fatalf("fork segment ran %d times, globals %v; want 1, [7 9]", forkRuns, m.globals)
	}
	current := func() (fork, tail, key bool) {
		return n0.fused != nil && n0.fusedVer == e.CVer,
			n1.fused != nil && n1.fusedVer == e.CVer,
			n3.keyVer == e.KeyMark()
	}
	if fork, tail, key := current(); !fork || !tail || !key {
		t.Fatalf("after replay: fork run %v, pure run %v, key vetted %v; want all current", fork, tail, key)
	}
	if len(n0.fused.steps) != 0 || len(n1.fused.steps) != 2 {
		t.Fatalf("fork head fused %d steps, pure tail %d; want 0 and 2",
			len(n0.fused.steps), len(n1.fused.steps))
	}
	for _, bump := range []struct {
		name string
		do   func()
	}{
		{"invalidate", func() { m.ac.Invalidate(e) }},
		{"Corrupt", func() { m.g.Corrupt(e, faults.InjFlipFork) }},
	} {
		n0.fusedVer, n1.fusedVer, n3.keyVer = e.CVer, e.CVer, e.KeyMark()
		bump.do()
		if fork, tail, key := current(); fork || tail || key {
			t.Errorf("%s left derived state current: fork run %v, pure run %v, key vetted %v",
				bump.name, fork, tail, key)
		}
	}
}

// forkHeadProgram models the PR-8 corner: the first dynamic block of a
// step ends in a dynamic branch test (a fork), followed by a straight
// line of pure-flow blocks. A miss at that head fork degrades the whole
// step before any fused work runs, so the builder must never start a
// superinstruction there.
func forkHeadProgram() *ir.Program {
	pure := func(id int) *ir.Block {
		return &ir.Block{
			ID:     id,
			HasDyn: true,
			Dyn:    []ir.DynInst{{Op: ir.Mov, D: 0, A: ir.Src{Kind: ir.SrcConst, Const: 1}}},
			Term:   ir.Inst{Op: ir.Ret},
		}
	}
	fork := &ir.Block{
		ID:      0,
		HasDyn:  true,
		DynTerm: ir.DTBr,
		TermSrc: ir.Src{Kind: ir.SrcVReg},
		Term:    ir.Inst{Op: ir.Br},
	}
	return &ir.Program{Blocks: []*ir.Block{fork, pure(1), pure(2)}}
}

// TestForkAtRunHeadSeversFusion drives buildFused over a fork-headed
// chain: the run starting at the fork must stay empty, while the same
// pure tail entered one node later fuses normally, with or without a
// static replay plan attached.
func TestForkAtRunHeadSeversFusion(t *testing.T) {
	plan := &ir.ReplayPlan{
		Blocks: []ir.BlockReplay{
			{Class: ir.ReplayFork},
			{Class: ir.ReplayPure, MaxRun: 2, DynOps: 1},
			{Class: ir.ReplayPure, MaxRun: 1, DynOps: 1},
		},
		DynBlocks: 3, FusableBlocks: 2, DynOps: 3, FusableOps: 2,
	}
	for _, tc := range []struct {
		name string
		plan *ir.ReplayPlan
	}{
		{"legacy", nil},
		{"planned", plan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := forkHeadProgram()
			p.Replay = tc.plan
			m := New(p, nil, Options{Memoize: true})
			n2 := &node{blockID: 2}
			n1 := &node{blockID: 1}
			n1.Next = n2
			n0 := &node{blockID: 0}
			n0.Next = n1
			if fr := m.buildFused(n0); len(fr.steps) != 0 {
				t.Errorf("fork-headed run fused %d steps, want 0", len(fr.steps))
			}
			if fr := m.buildFused(n1); len(fr.steps) != 2 || fr.ops != 2 {
				t.Errorf("pure tail fused %d steps / %d ops, want 2 / 2", len(fr.steps), fr.ops)
			}
		})
	}
}
