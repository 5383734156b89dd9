package ir

// This file defines the compile-time replay/fusion plan: the static table
// the compiler computes once per program, which fvet reports and the
// replay engine compares with what it may fuse. It is the static
// counterpart of rt's fused-run builder — see compile's replay analysis
// for how the verdicts are computed.

// Fuse limits shared by the static planner and the replay engines: a fused
// run's node count is capped at MaxFuseLen, and runs shorter than
// MinFuseLen are not worth fused dispatch.
const (
	MaxFuseLen = 1024
	MinFuseLen = 2
)

// ReplayClass classifies one block's role in a recorded action chain.
type ReplayClass uint8

// Replay classes, mirroring the DynTermKind taxonomy at action level.
const (
	// ReplayNoDyn: the block has no dynamic segment; it is never recorded
	// as an action and replay skips it entirely.
	ReplayNoDyn ReplayClass = iota
	// ReplayPure: pure-flow — the dynamic segment ends with rt-static
	// control flow (DTNone). Pure-flow actions advance unconditionally,
	// can never miss, and are the only actions eligible for fusion.
	ReplayPure
	// ReplayFork: the segment ends in a dynamic-result test (DTBr,
	// DTSetArg, or DTPin). Forks can miss mid-step and always terminate a
	// fused run.
	ReplayFork
	// ReplayRet: the segment ends the step (DTRet); the next memoization
	// key is assembled here.
	ReplayRet
)

// String implements fmt.Stringer.
func (c ReplayClass) String() string {
	switch c {
	case ReplayPure:
		return "pure-flow"
	case ReplayFork:
		return "fork"
	case ReplayRet:
		return "step-end"
	}
	return "no-dyn"
}

// BlockReplay is the per-block replay verdict.
type BlockReplay struct {
	Class ReplayClass

	// MaxRun is the length (in actions) of the longest pure-flow run a
	// replay chain can thread through this block, capped at the fuse
	// bound. Zero for blocks that can never join a run.
	MaxRun int

	// DynOps is the number of dynamic instructions in the block's segment.
	DynOps int
}

// ReplayPlan is the whole-program fusion/replay table attached to a
// compiled Program. Hand-built IR carries none.
type ReplayPlan struct {
	Blocks []BlockReplay

	// Aggregates over blocks with a dynamic segment.
	DynBlocks     int // blocks recorded as actions (HasDyn)
	FusableBlocks int // pure-flow blocks
	DynOps        int // dynamic instructions across all segments
	FusableOps    int // dynamic instructions inside fusable blocks
}

// Fusable reports whether block bi may join a fused run: it is pure-flow.
func (pl *ReplayPlan) Fusable(bi int) bool {
	if pl == nil || bi < 0 || bi >= len(pl.Blocks) {
		return false
	}
	return pl.Blocks[bi].Class == ReplayPure
}

// Coverage is the predicted fusion coverage: the fraction of dynamic
// instructions that live in fusable pure-flow blocks (0..1; 0 when the
// program has no dynamic work).
func (pl *ReplayPlan) Coverage() float64 {
	if pl == nil || pl.DynOps == 0 {
		return 0
	}
	return float64(pl.FusableOps) / float64(pl.DynOps)
}
