package rt_test

import (
	"reflect"
	"testing"

	"facile/internal/core"
	"facile/internal/faults"
	"facile/internal/rt"
)

// forkHeavySrc takes two dynamic branches a step, both on extern results
// that are a function of the step key, so every replay of a key follows the
// path first recorded for it. Its externs allocate nothing.
const forkHeavySrc = `
val acc = 0;
val ticks = 0;
extern probe(1);

fun main(q: queue(4, 2), step) {
    ticks = ticks + 1;
    val v = probe(step);
    if (v % 2 == 0) { acc = acc + step; } else { acc = acc - 1; }
    if (q?full()) {
        val a = q?front(0);
        q?pop();
        if (probe(a) % 3 == 0) { acc = acc + a; } else { acc = acc + 2; }
    }
    q?push(step, step * step % 5);
    set_args(q, (step + 1) % 4);
}
`

func newForkHeavy(t *testing.T, opt rt.Options) *rt.Machine {
	t.Helper()
	sim, err := core.CompileSource(forkHeavySrc, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := sim.NewMachine(core.NullText(), opt)
	if err := m.RegisterExtern("probe", func(a []int64) int64 { return a[0] * a[0] % 7 }); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIntArgs(0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVettedKeyRevettedAfterTruncate: a successor key is vetted once per
// entry version, so a key truncated after it was vetted must be caught on
// the very next replay. The run that remembers its vetting marks must
// fault, rekey and count exactly like a twin that has forgotten them (and
// so vets as if on every replay), and both must finish bit-identical to a
// run without memoization.
func TestVettedKeyRevettedAfterTruncate(t *testing.T) {
	// InjTruncate truncates the successor key when its first draw is even.
	seed := uint64(1)
	for faults.NewInjector(seed, 0).Rand()&1 != 0 {
		seed++
	}
	const warm, total = 200, 400
	plain := newForkHeavy(t, rt.Options{})
	if err := plain.Run(total); err != nil {
		t.Fatal(err)
	}
	var nodes [2]uint64
	var ms [2]*rt.Machine
	for i, forget := range []bool{false, true} {
		// A disabled injector: nothing fires on its own, but InjectNext can
		// draw from it.
		m := newForkHeavy(t, rt.Options{Memoize: true, Inject: faults.NewInjector(seed, 0)})
		if err := m.Run(warm); err != nil {
			t.Fatal(err)
		}
		if !rt.SpineKeyVetted(m) {
			t.Fatal("after warm-up the next entry's successor key is not marked vetted")
		}
		if forget {
			rt.ForgetVettedKeys(m)
		}
		before := m.Stats()
		if !rt.InjectNext(m, faults.InjTruncate) {
			t.Fatal("no cache entry for the next step")
		}
		if err := m.Run(warm + 1); err != nil {
			t.Fatal(err)
		}
		if f := m.LastFault(); f == nil || f.Kind != faults.CorruptKey {
			t.Fatalf("forget=%v: fault after truncation = %v, want CorruptKey", forget, f)
		}
		st := m.Stats()
		if st.Faults != before.Faults+1 || st.DegradedSteps != before.DegradedSteps+1 ||
			st.Invalidations != before.Invalidations+1 {
			t.Errorf("forget=%v: want one fault, one rekeyed step, one invalidation: before %+v, after %+v",
				forget, before, st)
		}
		nodes[i] = rt.ReplayedNodes(m)
		if err := m.Run(total); err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	if nodes[0] == 0 || nodes[0] != nodes[1] {
		t.Errorf("corrupt key caught after %d nodes with vetting marks, %d without; want equal and > 0",
			nodes[0], nodes[1])
	}
	if sv, sf := ms[0].Stats(), ms[1].Stats(); !reflect.DeepEqual(sv, sf) {
		t.Errorf("stats diverge:\n  vetted    %+v\n  forgotten %+v", sv, sf)
	}
	// Replay advances only the step key (main's arguments are restored from
	// it by the next slow step), so the key is the state to compare.
	kp, _ := plain.DebugState()
	for _, m := range ms {
		sameResults(t, plain, m, nil, nil)
		if km, _ := m.DebugState(); km != kp {
			t.Errorf("final step key %q, plain run %q", km, kp)
		}
	}
}

// TestWarmCompiledReplayAllocatesNothing: once a fork-heavy program's cache
// is warm, a replay — fork blocks, externs and queue pushes included —
// allocates nothing per step.
func TestWarmCompiledReplayAllocatesNothing(t *testing.T) {
	m := newForkHeavy(t, rt.Options{Memoize: true})
	steps := uint64(200)
	if err := m.Run(steps); err != nil {
		t.Fatal(err)
	}
	warm := m.Stats()
	const perRun = 50
	allocs := testing.AllocsPerRun(20, func() {
		steps += perRun
		if err := m.Run(steps); err != nil {
			t.Fatal(err)
		}
	})
	st := m.Stats()
	if st.SlowSteps != warm.SlowSteps || st.Replays == warm.Replays {
		t.Fatalf("measured steps were not all replays: warm %+v, after %+v", warm, st)
	}
	if allocs != 0 {
		t.Errorf("warm replay allocated %.1f times per %d steps, want 0", allocs, perRun)
	}
}
