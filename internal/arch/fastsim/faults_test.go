package fastsim

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"facile/internal/arch/funcsim"
	"facile/internal/arch/uarch"
	"facile/internal/faults"
	"facile/internal/memocache"
	"facile/internal/workloads"
)

// The recovery contract under injected faults: the run must not panic, the
// architectural output must still match the golden functional model, and
// the fault counters must show the recovery path actually fired.

var faultWorkloads = []struct {
	name string
	src  string
}{
	{"sum-loop", sumLoop},
	{"branchy", `
start:  li   r10, 300
        li   r11, 0
loop:   beq  r10, r0, done
        li   r2, 4
        syscall
        and  r5, r3, 7
        beq  r5, r0, bump
        add  r11, r11, 1
        b    next
bump:   add  r11, r11, 10
next:   sub  r10, r10, 1
        b    loop
done:   li   r2, 2
        mov  r3, r11
        syscall
        halt
`},
}

func TestInjectedFaultRecovery(t *testing.T) {
	cases := []struct {
		name        string
		kinds       []faults.Injection
		exactCycles bool // degradation preserves cycle counts
		check       func(t *testing.T, st Stats)
	}{
		{
			name:        "break-chain",
			kinds:       []faults.Injection{faults.InjBreakChain},
			exactCycles: true,
			check: func(t *testing.T, st Stats) {
				if st.Faults == 0 || st.DegradedSteps == 0 || st.Invalidations == 0 {
					t.Errorf("expected broken-chain faults to degrade steps: %+v", st)
				}
			},
		},
		{
			name:        "flip-fork",
			kinds:       []faults.Injection{faults.InjFlipFork},
			exactCycles: true,
			check: func(t *testing.T, st Stats) {
				if st.Misses == 0 {
					t.Errorf("flipped forks should surface as value misses: %+v", st)
				}
			},
		},
		{
			// Corrupt successor keys lose the in-flight pipeline state, so
			// only architectural results and the instruction count (not
			// cycle timing) are preserved.
			name:  "truncate-key",
			kinds: []faults.Injection{faults.InjTruncate},
			check: func(t *testing.T, st Stats) {
				if st.Faults == 0 {
					t.Errorf("expected corrupt-key faults: %+v", st)
				}
			},
		},
		{
			name:        "gen-bump",
			kinds:       []faults.Injection{faults.InjGenBump},
			exactCycles: true,
			check: func(t *testing.T, st Stats) {
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
			check: func(t *testing.T, st Stats) {
				if st.Faults == 0 {
					t.Errorf("expected at least one fault: %+v", st)
				}
			},
		},
	}
	for _, w := range faultWorkloads {
		for _, tc := range cases {
			t.Run(w.name+"/"+tc.name, func(t *testing.T) {
				p := asmOrDie(t, w.src)
				_, golden, err := funcsim.Run(p, 50_000_000)
				if err != nil {
					t.Fatal(err)
				}
				plain := New(uarch.Default(), p, Options{Memoize: false}).Run(0)

				ij := faults.NewInjector(7, 5, tc.kinds...)
				s := New(uarch.Default(), p, Options{Memoize: true, Inject: ij})
				res := s.Run(0)

				if !bytes.Equal(res.Output, golden.Output) {
					t.Errorf("output %q != golden %q", res.Output, golden.Output)
				}
				if res.ExitStatus != golden.ExitStatus {
					t.Errorf("exit %d != golden %d", res.ExitStatus, golden.ExitStatus)
				}
				if res.Insts != plain.Insts {
					t.Errorf("insts %d != plain %d", res.Insts, plain.Insts)
				}
				if tc.exactCycles && res.Cycles != plain.Cycles {
					t.Errorf("cycles %d != plain %d", res.Cycles, plain.Cycles)
				}
				if ij.Fired() == 0 {
					t.Fatal("injector never fired")
				}
				tc.check(t, s.Stats())
			})
		}
	}
}

// TestDrainCountsInFlight: a corrupt successor key drains the pipeline,
// and the instructions in flight, which fetch already executed, still
// count as committed. A suite program with every third replay's key
// truncated commits what a clean run commits.
func TestDrainCountsInFlight(t *testing.T) {
	w, err := workloads.Get("129.compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := New(uarch.Default(), w.Prog, Options{Memoize: true}).Run(0)
	ij := faults.NewInjector(1, 3, faults.InjTruncate)
	s := New(uarch.Default(), w.Prog, Options{Memoize: true, Inject: ij})
	got := s.Run(0)
	if st := s.Stats(); st.Faults == 0 {
		t.Fatalf("no corrupt-key faults: %+v", st)
	}
	if got.Insts != want.Insts || !bytes.Equal(got.Output, want.Output) {
		t.Errorf("insts %d, output %q; clean run %d, %q", got.Insts, got.Output, want.Insts, want.Output)
	}
}

func TestSelfCheckCleanRun(t *testing.T) {
	// With no corruption, self-checking must observe zero divergences and
	// must not perturb cycle counts or architectural results.
	for _, w := range faultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			p := asmOrDie(t, w.src)
			_, golden, err := funcsim.Run(p, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			plain := New(uarch.Default(), p, Options{Memoize: false}).Run(0)
			s := New(uarch.Default(), p, Options{Memoize: true, SelfCheck: 0.5})
			res := s.Run(0)
			st := s.Stats()
			if res.Cycles != plain.Cycles {
				t.Errorf("cycles %d != plain %d", res.Cycles, plain.Cycles)
			}
			if !bytes.Equal(res.Output, golden.Output) {
				t.Errorf("output %q != golden %q", res.Output, golden.Output)
			}
			if st.SelfChecks == 0 {
				t.Error("no steps were self-checked")
			}
			if st.SelfCheckDivergences != 0 {
				t.Errorf("clean run diverged %d times (last: %v)",
					st.SelfCheckDivergences, s.LastFault())
			}
		})
	}
}

func TestSelfCheckCatchesCorruption(t *testing.T) {
	// Structural corruption that a full self-check sweep must detect:
	// severed chains and truncated successor keys both disagree with the
	// live slow step.
	p := asmOrDie(t, sumLoop)
	_, golden, err := funcsim.Run(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ij := faults.NewInjector(11, 7, faults.InjBreakChain, faults.InjTruncate)
	s := New(uarch.Default(), p, Options{
		Memoize:   true,
		SelfCheck: 1.0,
		Inject:    ij,
	})
	res := s.Run(0)
	st := s.Stats()
	if !bytes.Equal(res.Output, golden.Output) {
		t.Errorf("output %q != golden %q", res.Output, golden.Output)
	}
	if res.ExitStatus != golden.ExitStatus {
		t.Errorf("exit %d != golden %d", res.ExitStatus, golden.ExitStatus)
	}
	if st.SelfCheckDivergences == 0 {
		t.Errorf("self-check missed injected corruption: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Errorf("divergence must invalidate the entry: %+v", st)
	}
}

func TestClearWhenFullOnOverflowingPut(t *testing.T) {
	// The clear must happen on the put that overflows the cap, not one
	// put later (and it clears the overflowing entry too).
	c := memocache.NewCache[action](200, nil)
	keys := []string{"aaaa", "bbbb", "cccc", "dddd"}
	for i, k := range keys {
		c.Put(&memocache.Entry[action]{Key: k})
		occupied := uint64(i+1) * (memocache.EntryBytes + 4)
		if occupied <= 200 {
			if c.G.Clears != 0 {
				t.Fatalf("cleared at %d bytes, under the 200-byte cap", occupied)
			}
			continue
		}
		if c.G.Clears != 1 || c.Len() != 0 || c.G.Bytes != 0 {
			t.Fatalf("put #%d crossed the cap but state is m=%d bytes=%d clears=%d",
				i+1, c.Len(), c.G.Bytes, c.G.Clears)
		}
		break
	}
}

func TestWatchdogBoundsReplayActions(t *testing.T) {
	// An absurdly low action watchdog forces every long replay to degrade;
	// results must still match the golden model.
	p := asmOrDie(t, sumLoop)
	_, golden, err := funcsim.Run(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s := New(uarch.Default(), p, Options{Memoize: true, MaxReplayActions: 4})
	res := s.Run(0)
	st := s.Stats()
	if !bytes.Equal(res.Output, golden.Output) {
		t.Errorf("output %q != golden %q", res.Output, golden.Output)
	}
	if st.WatchdogTrips == 0 || st.DegradedSteps == 0 {
		t.Errorf("expected watchdog trips to degrade steps: %+v", st)
	}
}

// TestGeneratedFaultSchedules runs each fault workload under generated
// fault schedules: per seed, a non-empty random subset of the injection
// kinds, an injection period of 1..8 replay opportunities, and
// self-checking off or at a random rate. Every run must end bit-identical
// to a clean memoizing run — output, exit status, instructions, cycles and
// the final pipeline key — with the gauge equal to the surviving entries'
// bytes. A schedule that truncates successor keys is exempt from the cycles
// and the key: fastsim recovers from it by draining the pipeline, which
// keeps the architectural results and the instruction count but not the
// timing (see TestInjectedFaultRecovery).
func TestGeneratedFaultSchedules(t *testing.T) {
	kinds := []faults.Injection{faults.InjBreakChain, faults.InjFlipFork, faults.InjGenBump, faults.InjTruncate}
	for _, w := range faultWorkloads {
		p := asmOrDie(t, w.src)
		clean := New(uarch.Default(), p, Options{Memoize: true})
		want := clean.Run(0)
		wantKey := clean.eng.snapshotKey()
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
			s := New(uarch.Default(), p, Options{Memoize: true, Inject: ij, SelfCheck: sc})
			got := s.Run(0)
			timed := !slices.Contains(set, faults.InjTruncate)
			if !bytes.Equal(got.Output, want.Output) || got.ExitStatus != want.ExitStatus || got.Insts != want.Insts ||
				timed && (got.Cycles != want.Cycles || s.eng.snapshotKey() != wantKey) {
				t.Errorf("%s seed %d (%v, self-check %.2f): insts %d cycles %d exit %d, clean run %d %d %d",
					w.name, seed, set, sc, got.Insts, got.Cycles, got.ExitStatus, want.Insts, want.Cycles, want.ExitStatus)
			}
			if st := s.Stats(); st.CacheBytes != sumEntryBytes(s.ac) {
				t.Errorf("%s seed %d: occupancy %d != entries' bytes %d", w.name, seed, st.CacheBytes, sumEntryBytes(s.ac))
			}
			if ij.Fired() == 0 {
				t.Errorf("%s seed %d: injector never fired", w.name, seed)
			}
		}
	}
}
