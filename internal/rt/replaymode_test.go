package rt_test

import (
	"reflect"
	"testing"

	"facile/internal/faults"
	"facile/internal/rt"
)

// The compiled closure-chain replay substrate must be bit-identical to the
// bytecode-at-a-time interpreter: same simulated results AND same fault /
// miss / degradation counters, under clean runs, self-checking, a starved
// replay watchdog (fused runs must trip at the identical node count), and
// every injected corruption (faults mid-superinstruction must detect and
// recover exactly as interpreted replay does). Fork blocks run their
// compiled chains on the per-node path, so the compiled run must execute
// some and the interpreted run none.
func TestCompiledReplayMatchesInterp(t *testing.T) {
	variants := []struct {
		name string
		opt  func() rt.Options
	}{
		{"clean", func() rt.Options { return rt.Options{Memoize: true} }},
		{"selfcheck", func() rt.Options { return rt.Options{Memoize: true, SelfCheck: 0.5} }},
		{"watchdog-starved", func() rt.Options { return rt.Options{Memoize: true, MaxReplayNodes: 2} }},
		{"inject-all", func() rt.Options {
			return rt.Options{Memoize: true, Inject: faults.NewInjector(7, 5,
				faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate, faults.InjGenBump)}
		}},
	}
	for _, w := range rtFaultWorkloads {
		for _, v := range variants {
			t.Run(w.name+"/"+v.name, func(t *testing.T) {
				oi := v.opt()
				oi.ReplayInterp = true
				run := func(opt rt.Options) (*rt.Machine, []int64, uint64) {
					m, out := newFaultWorkload(t, w.src, opt)
					forks := rt.CountCompiledForks(m)
					if err := m.Run(400); err != nil {
						t.Fatalf("run: %v", err)
					}
					return m, *out, *forks
				}
				mi, outI, forksI := run(oi)
				mc, outC, forksC := run(v.opt())
				sameResults(t, mi, mc, outI, outC)
				if forksI != 0 {
					t.Errorf("interpreted replay ran %d compiled fork blocks", forksI)
				}
				if forksC == 0 {
					t.Error("compiled replay never ran a compiled fork block")
				}
				si, sc := mi.Stats(), mc.Stats()
				if !reflect.DeepEqual(si, sc) {
					t.Errorf("stats diverge:\n  interp   %+v\n  compiled %+v", si, sc)
				}
				ki, ai := mi.DebugState()
				kc, ac := mc.DebugState()
				if ki != kc || !reflect.DeepEqual(ai, ac) {
					t.Errorf("final step state diverges: interp (%q, %v) vs compiled (%q, %v)",
						ki, ai, kc, ac)
				}
			})
		}
	}
}
