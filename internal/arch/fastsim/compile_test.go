package fastsim

import (
	"bytes"
	"reflect"
	"testing"

	"facile/internal/arch/funcsim"
	"facile/internal/arch/uarch"
	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/workloads"
)

// TestEmptyPathMissDegrades poisons the action cache with an entry whose
// first action is a dynamic-result test with no recorded successors: the
// replay misses before any dynamic value has been logged to s.path.
// Recovery alignment needs that value, so this must surface as a
// structural fault (degrade, re-run slow) — not a panic on path[len-1].
func TestEmptyPathMissDegrades(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	_, golden, err := funcsim.Run(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	plain := New(uarch.Default(), p, Options{Memoize: false}).Run(0)

	s := New(uarch.Default(), p, Options{Memoize: true})
	key := s.eng.snapshotKey()
	bad := &centry{key: key, first: &action{kind: aNextPC}}
	s.ac.put(bad)
	s.beginReplay(key)
	s.replayFrom(bad, 0)

	st := s.Stats()
	if f := s.LastFault(); f == nil || f.Kind != faults.BrokenChain {
		t.Fatalf("fault = %v, want BrokenChain", s.LastFault())
	}
	if st.DegradedSteps != 1 || st.Invalidations != 1 {
		t.Errorf("expected one degraded step and one invalidation: %+v", st)
	}
	if st.Misses != 0 {
		t.Errorf("a structural fault must not count as a value miss: %+v", st)
	}

	// The run must finish on the slow path with results identical to the
	// uncorrupted simulators.
	res := s.Run(0)
	if !bytes.Equal(res.Output, golden.Output) {
		t.Errorf("output %q != golden %q", res.Output, golden.Output)
	}
	if res.Cycles != plain.Cycles {
		t.Errorf("cycles %d != plain %d", res.Cycles, plain.Cycles)
	}
}

// TestFusedStateDiscardedOnCverBump pins the derived-state contract: a
// superinstruction built for an action is valid only while the owning
// entry's cver is unchanged, and both fault injection and invalidation
// move it.
func TestFusedStateDiscardedOnCverBump(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	s := New(uarch.Default(), p, Options{Memoize: true})
	e := &centry{key: "k", first: &action{kind: aShift, slot: 1}}
	s.ac.put(e)
	a := e.first
	a.fused = s.buildFused(a)
	a.fusedVer = e.cver
	s.ac.invalidate(e)
	if a.fusedVer == e.cver {
		t.Fatal("invalidate did not bump cver; stale fused state would survive")
	}
	a.fusedVer = e.cver
	s.injectFault(e, faults.InjFlipFork)
	if a.fusedVer == e.cver {
		t.Fatal("injectFault did not bump cver; stale fused state would survive")
	}
}

// The compiled closure-array replay substrate must be bit-identical to the
// action-at-a-time interpreter: same cycles, instructions, and output AND
// same fault / miss / degradation counters, under clean runs,
// self-checking, a starved action watchdog (fused runs must trip at the
// identical action count), and every injected corruption (faults
// mid-superinstruction must detect and recover exactly as interpreted
// replay does).
func TestCompiledReplayMatchesInterp(t *testing.T) {
	variants := []struct {
		name string
		opt  func() Options
	}{
		{"clean", func() Options { return Options{Memoize: true} }},
		{"selfcheck", func() Options { return Options{Memoize: true, SelfCheck: 0.5} }},
		{"capped", func() Options { return Options{Memoize: true, CacheCapBytes: 64 << 10} }},
		{"watchdog-starved", func() Options { return Options{Memoize: true, MaxReplayActions: 4} }},
		{"inject-all", func() Options {
			return Options{Memoize: true, Inject: faults.NewInjector(7, 5,
				faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate, faults.InjGenBump)}
		}},
	}
	for _, w := range faultWorkloads {
		for _, v := range variants {
			t.Run(w.name+"/"+v.name, func(t *testing.T) {
				p := asmOrDie(t, w.src)
				si := New(uarch.Default(), p, v.opt())
				si.interp = true
				ri := si.Run(0)
				sc := New(uarch.Default(), p, v.opt())
				rc := sc.Run(0)
				if !reflect.DeepEqual(ri, rc) {
					t.Errorf("results diverge:\n  interp   %+v\n  compiled %+v", ri, rc)
				}
				if sti, stc := si.Stats(), sc.Stats(); !reflect.DeepEqual(sti, stc) {
					t.Errorf("stats diverge:\n  interp   %+v\n  compiled %+v", sti, stc)
				}
			})
		}
	}
}

// TestReplayModesBitIdentical runs every bundled workload at scale 1
// through the memoizing simulator under both replay dispatchers and
// requires the results and the complete stats (replays, misses, faults,
// degradations, cache accounting) to be bit-identical: the compiled
// substrate may only be faster, never different.
func TestReplayModesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism sweep skipped in -short mode")
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			si := New(uarch.Default(), w.Prog, Options{Memoize: true})
			si.interp = true
			ri := si.Run(0)
			sc := New(uarch.Default(), w.Prog, Options{Memoize: true})
			rc := sc.Run(0)
			if !reflect.DeepEqual(ri, rc) {
				t.Errorf("results diverge:\n  interp   %+v\n  compiled %+v", ri, rc)
			}
			if sti, stc := si.Stats(), sc.Stats(); !reflect.DeepEqual(sti, stc) {
				t.Errorf("stats diverge:\n  interp   %+v\n  compiled %+v", sti, stc)
			}
		})
	}
}

// TestForkAtRunHeadSeversFusion is the action-cache image of the PR-8
// corner: a run whose head action carries a dynamic result (here the
// resolved next-PC test) must not fuse at all — a miss there degrades
// the whole step before any fused work runs — while the same pure tail
// entered one action later fuses normally.
func TestForkAtRunHeadSeversFusion(t *testing.T) {
	p := asmOrDie(t, sumLoop)
	s := New(uarch.Default(), p, Options{Memoize: true})
	t2 := &action{kind: aShift, slot: 1}
	t1 := &action{kind: aShift, slot: 1, next: t2}
	head := &action{kind: aNextPC, next: t1}
	if fr := s.buildFused(head); fr.n != 0 || len(fr.fns) != 0 {
		t.Errorf("fork-headed run fused %d actions, want 0", fr.n)
	}
	if fr := s.buildFused(t1); fr.n != 2 || fr.ops != 2 {
		t.Errorf("pure tail fused %d actions / %d ops, want 2 / 2", fr.n, fr.ops)
	}
}

// TestActionClassTable pins the static classification the compiler's
// replay planner shares with this engine: pure-flow kinds fuse, every
// dynamic-result kind is a fork barrier, aEnd is the step boundary, and
// unknown (corrupt or future) kinds never fuse.
func TestActionClassTable(t *testing.T) {
	pure := []uint8{aExec, aUpdate, aShift}
	forks := []uint8{aICache, aDCache, aPredict, aNextPC, aHalted}
	for _, k := range pure {
		if actClass[k] != ir.ReplayPure || !fusable(k) {
			t.Errorf("kind %d: class %v, fusable %v; want pure-flow and fusable", k, actClass[k], fusable(k))
		}
	}
	for _, k := range forks {
		if actClass[k] != ir.ReplayFork || fusable(k) {
			t.Errorf("kind %d: class %v, fusable %v; want fork and unfusable", k, actClass[k], fusable(k))
		}
	}
	if actClass[aEnd] != ir.ReplayRet || fusable(aEnd) {
		t.Errorf("aEnd: class %v, fusable %v; want step-end and unfusable", actClass[aEnd], fusable(aEnd))
	}
	if fusable(aEnd + 1) {
		t.Error("unknown kind reported fusable")
	}
}
