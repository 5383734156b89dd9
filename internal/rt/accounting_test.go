package rt_test

import (
	"testing"

	"facile/internal/rt"
)

// TestInvalidationRefundsEntryBytes: the entries a memoizing run records
// carry the bytes the recorder charged them, and invalidating them must
// refund exactly those bytes to the occupancy gauge.
func TestInvalidationRefundsEntryBytes(t *testing.T) {
	m, _ := runFaultWorkload(t, rtFaultWorkloads[0].src, rt.Options{Memoize: true})
	c := rt.ActionCache(m)
	ents := rt.Entries(m)
	if len(ents) < 6 {
		t.Fatalf("run recorded %d entries, want at least 6", len(ents))
	}
	if st := m.Stats(); st.CacheBytes != rt.EntryBytes(m) || st.Invalidations != 0 {
		t.Fatalf("before invalidations: occupancy %d, entries hold %d (stats %+v)",
			st.CacheBytes, rt.EntryBytes(m), st)
	}
	for _, i := range []int{0, 2, 5} {
		c.Invalidate(ents[i])
	}
	if st := m.Stats(); st.CacheBytes != rt.EntryBytes(m) {
		t.Fatalf("after invalidations: occupancy %d, surviving entries hold %d", st.CacheBytes, rt.EntryBytes(m))
	}
	if c.Len() != len(ents)-3 {
		t.Fatalf("expected %d surviving entries, have %d", len(ents)-3, c.Len())
	}
	// Invalidating a dead entry again must not refund twice.
	before := m.Stats().CacheBytes
	c.Invalidate(ents[0])
	if st := m.Stats(); st.CacheBytes != before || st.Invalidations != 4 {
		t.Fatalf("double invalidation: occupancy %d -> %d, invalidations %d (want 4)",
			before, st.CacheBytes, st.Invalidations)
	}
	// Overwriting a key (a re-recording of a step the cache holds) refunds
	// the replaced entry's bytes.
	repl := *ents[1]
	repl.Bytes = 0
	c.Put(&repl)
	if st := m.Stats(); st.CacheBytes != rt.EntryBytes(m) {
		t.Fatalf("after overwrite: occupancy %d, entries hold %d", st.CacheBytes, rt.EntryBytes(m))
	}
	// A stale invalidation after a clear must not underflow the fresh gauge.
	c.Clear()
	c.Invalidate(ents[3])
	if st := m.Stats(); st.CacheBytes != 0 {
		t.Fatalf("post-clear stale invalidation left occupancy %d", st.CacheBytes)
	}
}
