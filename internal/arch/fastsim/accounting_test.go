package fastsim

import (
	"bytes"
	"sort"
	"testing"

	"facile/internal/arch/uarch"
	"facile/internal/faults"
	"facile/internal/memocache"
	"facile/internal/workloads"
)

// sumEntryBytes is the occupancy the gauge should report: the bytes charged
// by every entry still installed in the cache.
func sumEntryBytes(c *memocache.Cache[action]) uint64 {
	var n uint64
	c.Each(func(e *memocache.Entry[action]) { n += e.Bytes })
	return n
}

// TestInvalidationRefundsEntryBytes: the entries a memoizing run records
// carry the bytes the recorder charged them, and invalidating them must
// refund exactly those bytes to the occupancy gauge.
func TestInvalidationRefundsEntryBytes(t *testing.T) {
	s := New(uarch.Default(), asmOrDie(t, sumLoop), Options{Memoize: true})
	s.Run(0)
	c := s.ac
	var ents []*memocache.Entry[action]
	c.Each(func(e *memocache.Entry[action]) { ents = append(ents, e) })
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
	if len(ents) < 6 {
		t.Fatalf("run recorded %d entries, want at least 6", len(ents))
	}
	if c.G.Bytes != sumEntryBytes(c) {
		t.Fatalf("occupancy %d != charged entry bytes %d", c.G.Bytes, sumEntryBytes(c))
	}
	// N invalidations must leave the occupancy equal to the bytes of the
	// surviving entries.
	for _, i := range []int{1, 3, 4} {
		c.Invalidate(ents[i])
	}
	if want := sumEntryBytes(c); c.G.Bytes != want {
		t.Fatalf("after invalidations: occupancy %d, surviving entries hold %d", c.G.Bytes, want)
	}
	if c.Len() != len(ents)-3 {
		t.Fatalf("expected %d surviving entries, have %d", len(ents)-3, c.Len())
	}
	// Invalidating a dead entry again must not refund twice.
	before := c.G.Bytes
	c.Invalidate(ents[1])
	if c.G.Bytes != before {
		t.Fatalf("double invalidation changed occupancy: %d -> %d", before, c.G.Bytes)
	}
	if st := s.Stats(); st.Invalidations != 4 || st.CacheBytes != c.G.Bytes {
		t.Fatalf("stats report %d invalidations, occupancy %d; want 4, %d",
			st.Invalidations, st.CacheBytes, c.G.Bytes)
	}
	// A stale invalidation after a clear must not underflow the fresh gauge.
	c.Clear()
	c.Invalidate(ents[0])
	if c.G.Bytes != 0 {
		t.Fatalf("post-clear stale invalidation left occupancy %d", c.G.Bytes)
	}
}

func TestFaultRunKeepsAccountingConsistent(t *testing.T) {
	// End to end: a run that invalidates entries via injected faults must
	// leave the gauge equal to the surviving entries' charged bytes.
	for _, w := range faultWorkloads {
		t.Run(w.name, func(t *testing.T) {
			p := asmOrDie(t, w.src)
			ij := faults.NewInjector(7, 5,
				faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate)
			s := New(uarch.Default(), p, Options{Memoize: true, Inject: ij})
			s.Run(0)
			st := s.Stats()
			if st.Invalidations == 0 {
				t.Fatalf("injector produced no invalidations: %+v", st)
			}
			if want := sumEntryBytes(s.ac); st.CacheBytes != want {
				t.Errorf("occupancy %d != surviving entries' bytes %d (stats %+v)",
					st.CacheBytes, want, st)
			}
		})
	}
}

// TestCorruptSuccessorKeyInvalidatesItsEntry: a successor key that fails to
// parse when the slow simulator restores from it condemns the entry that
// recorded it, so the entry is not replayed into the same fault again. On
// 129.compress with every third replay's key truncated, the corrupt-key
// faults stay within the injections, entries are invalidated, the output
// is a clean run's, and the gauge still equals the installed entries' bytes.
func TestCorruptSuccessorKeyInvalidatesItsEntry(t *testing.T) {
	w, err := workloads.Get("129.compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	clean := New(uarch.Default(), w.Prog, Options{Memoize: true}).Run(0)
	ij := faults.NewInjector(1, 3, faults.InjTruncate)
	s := New(uarch.Default(), w.Prog, Options{Memoize: true, Inject: ij})
	res := s.Run(0)
	st := s.Stats()
	// Truncation hits only successor keys here (fastsim's actions carry no
	// placeholder data), so every fault is a corrupt key.
	t.Logf("fired %d, corrupt-key faults %d, invalidations %d", ij.Fired(), st.Faults, st.Invalidations)
	if ij.Fired() == 0 {
		t.Fatal("injector never fired")
	}
	if f := s.LastFault(); f == nil || f.Kind != faults.CorruptKey {
		t.Fatalf("last fault %v, want a corrupt key", f)
	}
	if st.Faults > ij.Fired() {
		t.Errorf("%d corrupt-key faults from %d injections", st.Faults, ij.Fired())
	}
	if st.Invalidations == 0 {
		t.Error("no entry was invalidated")
	}
	if !bytes.Equal(res.Output, clean.Output) || res.ExitStatus != clean.ExitStatus {
		t.Errorf("output %q (exit %d), clean run %q (exit %d)", res.Output, res.ExitStatus, clean.Output, clean.ExitStatus)
	}
	if want := sumEntryBytes(s.ac); st.CacheBytes != want {
		t.Errorf("gauge %d, installed entries charge %d", st.CacheBytes, want)
	}
}
