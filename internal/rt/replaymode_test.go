package rt_test

import (
	"testing"

	"facile/internal/faults"
	"facile/internal/obs"
	"facile/internal/rt"
)

// TestCompiledReplayMatchesInterp: replaying the segments decoded at
// machine build — through fused runs and the per-node path — must be
// observationally identical to interpreting every step on the slow
// simulator: the same emitted sequence, globals and final step key, under
// clean runs, self-checking, a starved replay watchdog (a fused run must
// not carry replay past it), and every injected corruption. Each variant
// must also exercise the path it names.
func TestCompiledReplayMatchesInterp(t *testing.T) {
	variants := []struct {
		name  string
		opt   func() rt.Options
		check func(st rt.Stats, fused uint64) bool
	}{
		{"clean", func() rt.Options { return rt.Options{Memoize: true} },
			func(st rt.Stats, fused uint64) bool { return st.Replays > 0 && fused > 0 }},
		{"selfcheck", func() rt.Options { return rt.Options{Memoize: true, SelfCheck: 0.5} },
			func(st rt.Stats, _ uint64) bool { return st.Replays > 0 && st.SelfChecks > 0 }},
		{"watchdog-starved", func() rt.Options { return rt.Options{Memoize: true, MaxReplayNodes: 2} },
			func(st rt.Stats, _ uint64) bool { return st.WatchdogTrips > 0 }},
		{"inject-all", func() rt.Options {
			return rt.Options{Memoize: true, Inject: faults.NewInjector(7, 5,
				faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate, faults.InjGenBump)}
		}, func(st rt.Stats, _ uint64) bool { return st.Replays > 0 && st.Faults > 0 }},
	}
	for _, w := range rtFaultWorkloads {
		for _, v := range variants {
			t.Run(w.name+"/"+v.name, func(t *testing.T) {
				plain, outP := runFaultWorkload(t, w.src, rt.Options{})
				opt := v.opt()
				rec := obs.NewRecorder(obs.Config{})
				opt.Obs = rec
				memo, outM := runFaultWorkload(t, w.src, opt)
				sameResults(t, plain, memo, outP, outM)
				// Replay advances only the step key (main's arguments are
				// restored from it by the next slow step), so the key is the
				// state to compare.
				kp, _ := plain.DebugState()
				km, _ := memo.DebugState()
				if km != kp {
					t.Errorf("final step key %q, slow-only run %q", km, kp)
				}
				st, fused := memo.Stats(), rec.Registry().Counter("rt.fused_dispatches").Load()
				if !v.check(st, fused) {
					t.Errorf("the run did not exercise %s replay: %d fused dispatches, %+v", v.name, fused, st)
				}
			})
		}
	}
}
