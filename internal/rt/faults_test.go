package rt_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"facile/internal/core"
	"facile/internal/faults"
	"facile/internal/rt"
)

// The recovery contract under injected faults: the run must not panic, the
// simulated results (globals and the extern-observed sequence) must still
// match the non-memoizing run exactly, and the fault counters must show the
// recovery path actually fired.

var rtFaultWorkloads = []struct {
	name string
	src  string
}{
	{"branchy-loop", `
val acc = 0;
val ticks = 0;
extern next(0);
extern emit(1);

fun main(x) {
    ticks = ticks + 1;          // dynamic
    val v = next();             // dynamic result feeds a forked branch
    if (v % 2 == 0) { acc = acc + x; }
    else            { acc = acc + 1; }
    emit(acc);
    val y = x + 1;
    if (y > 9) { y = 0; }
    set_args(y);
}
`},
	{"queue-keyed", `
val acc = 0;
val ticks = 0;
extern next(0);
extern emit(1);

fun main(q: queue(4, 2), step) {
    ticks = ticks + 1;
    if (q?full()) {
        val a = q?front(0);
        q?pop();
        val v = next();
        if (v % 2 == 0) { acc = acc + a; }
        else            { acc = acc + 1; }
        emit(acc);
    }
    q?push(step, step * step % 5);
    set_args(q, (step + 1) % 4);
}
`},
}

// newFaultWorkload builds a machine for one workload; out collects the
// emitted sequence. The next() extern cycles deterministically so plain and
// faulty runs see identical dynamic inputs.
func newFaultWorkload(t *testing.T, src string, opt rt.Options) (m *rt.Machine, out *[]int64) {
	t.Helper()
	sim, err := core.CompileSource(src, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m = sim.NewMachine(core.NullText(), opt)
	out = new([]int64)
	i := int64(0)
	m.RegisterExtern("next", func([]int64) int64 {
		i++
		return i * i % 7
	})
	m.RegisterExtern("emit", func(a []int64) int64 {
		*out = append(*out, a[0])
		return 0
	})
	if err := m.SetIntArgs(0); err != nil {
		t.Fatal(err)
	}
	return m, out
}

// runFaultWorkload runs one workload for 400 steps and returns the machine
// plus the emitted sequence.
func runFaultWorkload(t *testing.T, src string, opt rt.Options) (*rt.Machine, []int64) {
	t.Helper()
	m, out := newFaultWorkload(t, src, opt)
	if err := m.Run(400); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, *out
}

func sameResults(t *testing.T, plain, faulty *rt.Machine, outP, outF []int64) {
	t.Helper()
	if !reflect.DeepEqual(outP, outF) {
		t.Errorf("emit sequences differ:\n  plain  %v\n  faulty %v", outP, outF)
	}
	for _, g := range []string{"acc", "ticks"} {
		vp, _ := plain.Global(g)
		vf, _ := faulty.Global(g)
		if vp != vf {
			t.Errorf("global %s: plain %d, faulty %d", g, vp, vf)
		}
	}
}

func TestInjectedFaultRecovery(t *testing.T) {
	cases := []struct {
		name  string
		kinds []faults.Injection
		check func(t *testing.T, st rt.Stats)
	}{
		{
			name:  "break-chain",
			kinds: []faults.Injection{faults.InjBreakChain},
			check: func(t *testing.T, st rt.Stats) {
				if st.Faults == 0 || st.DegradedSteps == 0 || st.Invalidations == 0 {
					t.Errorf("expected broken-chain faults to degrade steps: %+v", st)
				}
			},
		},
		{
			name:  "flip-fork",
			kinds: []faults.Injection{faults.InjFlipFork},
			check: func(t *testing.T, st rt.Stats) {
				if st.Misses == 0 {
					t.Errorf("flipped forks should surface as value misses: %+v", st)
				}
			},
		},
		{
			name:  "truncate",
			kinds: []faults.Injection{faults.InjTruncate},
			check: func(t *testing.T, st rt.Stats) {
				if st.Faults == 0 || st.DegradedSteps == 0 {
					t.Errorf("expected truncation faults to degrade steps: %+v", st)
				}
			},
		},
		{
			name:  "gen-bump",
			kinds: []faults.Injection{faults.InjGenBump},
			check: func(t *testing.T, st rt.Stats) {
				if st.CacheClears == 0 {
					t.Errorf("expected injected cache clears: %+v", st)
				}
			},
		},
		{
			name: "all-kinds",
			kinds: []faults.Injection{
				faults.InjBreakChain, faults.InjFlipFork,
				faults.InjTruncate, faults.InjGenBump,
			},
			check: func(t *testing.T, st rt.Stats) {
				if st.Faults == 0 {
					t.Errorf("expected at least one fault: %+v", st)
				}
			},
		},
	}
	for _, w := range rtFaultWorkloads {
		for _, tc := range cases {
			t.Run(w.name+"/"+tc.name, func(t *testing.T) {
				plain, outP := runFaultWorkload(t, w.src, rt.Options{Memoize: false})
				ij := faults.NewInjector(7, 5, tc.kinds...)
				faulty, outF := runFaultWorkload(t, w.src, rt.Options{Memoize: true, Inject: ij})
				sameResults(t, plain, faulty, outP, outF)
				if ij.Fired() == 0 {
					t.Fatal("injector never fired")
				}
				tc.check(t, faulty.Stats())
			})
		}
	}
}

func TestSelfCheckCleanRun(t *testing.T) {
	// With no corruption, self-checking must observe zero divergences and
	// must not perturb results.
	for _, w := range rtFaultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain, outP := runFaultWorkload(t, w.src, rt.Options{Memoize: false})
			memo, outM := runFaultWorkload(t, w.src, rt.Options{Memoize: true, SelfCheck: 0.5})
			sameResults(t, plain, memo, outP, outM)
			st := memo.Stats()
			if st.SelfChecks == 0 {
				t.Error("no steps were self-checked")
			}
			if st.SelfCheckDivergences != 0 {
				t.Errorf("clean run diverged %d times (last: %v)",
					st.SelfCheckDivergences, memo.LastFault())
			}
		})
	}
}

func TestSelfCheckCatchesCorruption(t *testing.T) {
	// Structural corruption that a full self-check sweep must detect:
	// severed chains and truncated records both disagree with the live
	// slow step.
	for _, w := range rtFaultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain, outP := runFaultWorkload(t, w.src, rt.Options{Memoize: false})
			ij := faults.NewInjector(11, 7, faults.InjBreakChain, faults.InjTruncate)
			memo, outM := runFaultWorkload(t, w.src, rt.Options{
				Memoize:   true,
				SelfCheck: 1.0,
				Inject:    ij,
			})
			sameResults(t, plain, memo, outP, outM)
			st := memo.Stats()
			if ij.Fired() == 0 {
				t.Fatal("injector never fired")
			}
			if st.SelfCheckDivergences == 0 {
				t.Errorf("self-check missed injected corruption: %+v", st)
			}
			if st.Invalidations == 0 {
				t.Errorf("divergence must invalidate the entry: %+v", st)
			}
		})
	}
}

func TestReplayNodeWatchdog(t *testing.T) {
	// An absurdly low node watchdog forces every replay to degrade
	// mid-step; results must still match the non-memoizing run exactly.
	for _, w := range rtFaultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain, outP := runFaultWorkload(t, w.src, rt.Options{Memoize: false})
			memo, outM := runFaultWorkload(t, w.src, rt.Options{Memoize: true, MaxReplayNodes: 2})
			sameResults(t, plain, memo, outP, outM)
			st := memo.Stats()
			if st.WatchdogTrips == 0 || st.DegradedSteps == 0 {
				t.Errorf("expected watchdog trips to degrade steps: %+v", st)
			}
		})
	}
}

func TestFaultRunKeepsAccountingConsistent(t *testing.T) {
	// End to end: a run that invalidates entries via injected faults must
	// leave the gauge equal to the surviving entries' charged bytes.
	for _, w := range rtFaultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			ij := faults.NewInjector(7, 5,
				faults.InjBreakChain, faults.InjFlipFork,
				faults.InjTruncate, faults.InjGenBump)
			m, _ := runFaultWorkload(t, w.src, rt.Options{Memoize: true, Inject: ij})
			st := m.Stats()
			if st.Invalidations == 0 {
				t.Fatalf("injector produced no invalidations: %+v", st)
			}
			if want := rt.EntryBytes(m); st.CacheBytes != want {
				t.Errorf("occupancy %d != surviving entries' bytes %d (stats %+v)",
					st.CacheBytes, want, st)
			}
		})
	}
}

// TestGeneratedFaultSchedules runs each fault workload under generated
// fault schedules: per seed, a non-empty random subset of the injection
// kinds, an injection period of 1..8 replay opportunities, and
// self-checking off or at a random rate. Every run must end bit-identical
// to a clean memoizing run — emitted sequence, globals, steps and the final
// step key — with the gauge equal to the surviving entries' bytes.
func TestGeneratedFaultSchedules(t *testing.T) {
	kinds := []faults.Injection{faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate, faults.InjGenBump}
	for _, w := range rtFaultWorkloads {
		clean, outC := runFaultWorkload(t, w.src, rt.Options{Memoize: true})
		wantKey, _ := clean.DebugState()
		for seed := uint64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewPCG(seed, 0))
			var set []faults.Injection
			for len(set) == 0 {
				for _, k := range kinds {
					if r.IntN(2) == 0 {
						set = append(set, k)
					}
				}
			}
			sc := 0.0
			if r.IntN(2) == 0 {
				sc = r.Float64()
			}
			ij := faults.NewInjector(seed, 1+r.Uint64N(8), set...)
			m, out := runFaultWorkload(t, w.src, rt.Options{Memoize: true, Inject: ij, SelfCheck: sc})
			sameResults(t, clean, m, outC, out)
			st, stC := m.Stats(), clean.Stats()
			if key, _ := m.DebugState(); key != wantKey || st.SlowSteps+st.Replays != stC.SlowSteps+stC.Replays {
				t.Errorf("%s seed %d (%v, self-check %.2f): final key %x after %d steps, clean run %x after %d",
					w.name, seed, set, sc, key, st.SlowSteps+st.Replays, wantKey, stC.SlowSteps+stC.Replays)
			}
			if want := rt.EntryBytes(m); st.CacheBytes != want {
				t.Errorf("%s seed %d: occupancy %d != entries' bytes %d", w.name, seed, st.CacheBytes, want)
			}
			if ij.Fired() == 0 {
				t.Errorf("%s seed %d: injector never fired", w.name, seed)
			}
		}
	}
}
