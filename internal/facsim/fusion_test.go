package facsim

import (
	"bytes"
	"testing"

	"facile/internal/isa/loader"
	"facile/internal/obs"
)

// TestPredictedFusionMatchesAchieved asserts the static/dynamic coverage
// equality on every shipped description: the compiler's replay plan
// (rt.fusion_predicted_*) must agree exactly with the blocks the machine
// may put in a fused run (rt.fusion_compiled_*). It also pins the
// preflight-exported fusion facts to the same figures, so what fvet and
// the job records report is what the engine does.
func TestPredictedFusionMatchesAchieved(t *testing.T) {
	mks := map[string]func(*loader.Program, Options) (*Instance, error){
		KindFunctional: NewFunctional,
		KindInOrder:    NewInOrder,
		KindOOO:        NewOOO,
	}
	prog := asmOrDie(t, mixedWorkload)
	for kind, mk := range mks {
		t.Run(kind, func(t *testing.T) {
			rec := obs.NewRecorder(obs.Config{})
			if _, err := mk(prog, Options{Memoize: true, Obs: rec}); err != nil {
				t.Fatal(err)
			}
			reg := rec.Registry()
			pb := reg.Counter("rt.fusion_predicted_blocks").Load()
			cb := reg.Counter("rt.fusion_compiled_blocks").Load()
			po := reg.Counter("rt.fusion_predicted_ops").Load()
			co := reg.Counter("rt.fusion_compiled_ops").Load()
			if pb == 0 {
				t.Fatal("no predicted fusable blocks: the compiled description carries no replay plan")
			}
			if pb != cb {
				t.Errorf("predicted %d fusable blocks, engine may fuse %d", pb, cb)
			}
			if po != co {
				t.Errorf("predicted %d fusable ops, engine may fuse %d", po, co)
			}
			sum, ok := Preflight(kind)
			if !ok {
				t.Fatalf("no preflight for kind %q", kind)
			}
			if sum.Fusion == nil {
				t.Fatal("preflight summary carries no fusion facts")
			}
			if uint64(sum.Fusion.FusableBlocks) != pb || uint64(sum.Fusion.FusableOps) != po {
				t.Errorf("preflight facts (%d blocks, %d ops) disagree with engine counters (%d, %d)",
					sum.Fusion.FusableBlocks, sum.Fusion.FusableOps, pb, cb)
			}
			if sum.Fusion.DynOps < sum.Fusion.FusableOps {
				t.Errorf("fusable ops %d exceed dynamic ops %d", sum.Fusion.FusableOps, sum.Fusion.DynOps)
			}
		})
	}
}

// TestStaticFactsPreserveReplayParity is the plan-era bit-identity spot
// check: with the engine fusing the blocks the static table calls
// fusable, a memoized run must produce the architectural results of a
// run that interprets every step, and must actually dispatch fused runs.
func TestStaticFactsPreserveReplayParity(t *testing.T) {
	prog := asmOrDie(t, mixedWorkload)
	run := func(memo bool) (Result, uint64) {
		rec := obs.NewRecorder(obs.Config{})
		in, err := NewInOrder(prog, Options{Memoize: memo, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Registry().Counter("rt.fused_dispatches").Load()
	}
	resM, fused := run(true)
	resP, _ := run(false)
	if !bytes.Equal(resM.Output, resP.Output) {
		t.Errorf("memoized output %q != slow-only output %q", resM.Output, resP.Output)
	}
	if resM.Exit != resP.Exit {
		t.Errorf("memoized exit %d != slow-only exit %d", resM.Exit, resP.Exit)
	}
	if resM.Cycles != resP.Cycles || resM.Insts != resP.Insts {
		t.Errorf("memoized (insts, cycles) (%d, %d) != slow-only (%d, %d)",
			resM.Insts, resM.Cycles, resP.Insts, resP.Cycles)
	}
	if resM.Stats.Replays == 0 {
		t.Error("memoized run replayed nothing")
	}
	if fused == 0 {
		t.Error("memoized run never dispatched a fused run")
	}
}
