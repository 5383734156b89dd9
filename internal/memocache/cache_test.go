package memocache

import (
	"fmt"
	"testing"

	"facile/internal/snapshot"
)

// tnode is a minimal engine node: one payload value plus the cache links.
type tnode struct {
	v int64
	Links[tnode]
}

var tcodec = Codec[tnode]{
	Engine:  "test",
	Version: 1,
	Links:   func(n *tnode) *Links[tnode] { return &n.Links },
	Save:    func(w *snapshot.Writer, n *tnode) { w.I64(n.v) },
	Load: func(r *snapshot.Reader, n *tnode) error {
		n.v = r.I64()
		return nil
	},
}

func sumEntryBytes(c *Cache[tnode]) uint64 {
	var n uint64
	c.Each(func(e *Entry[tnode]) { n += e.Bytes })
	return n
}

func TestInvalidationRefundsEntryBytes(t *testing.T) {
	c := NewCache[tnode](0, nil)
	var ents []*Entry[tnode]
	for i := 0; i < 6; i++ {
		e := &Entry[tnode]{Key: fmt.Sprintf("key%d", i)}
		c.Put(e)
		c.Charge(e, uint64(64*(i+1)))
		ents = append(ents, e)
	}
	if c.G.Bytes != sumEntryBytes(c) {
		t.Fatalf("occupancy %d != charged entry bytes %d", c.G.Bytes, sumEntryBytes(c))
	}
	// N invalidations must leave the occupancy equal to the bytes of the
	// surviving entries.
	for _, i := range []int{0, 2, 5} {
		c.Invalidate(ents[i])
	}
	if want := sumEntryBytes(c); c.G.Bytes != want {
		t.Fatalf("after invalidations: occupancy %d, surviving entries hold %d", c.G.Bytes, want)
	}
	if c.Len() != 3 {
		t.Fatalf("expected 3 surviving entries, have %d", c.Len())
	}
	// Invalidating a dead entry again must not refund twice.
	before := c.G.Bytes
	c.Invalidate(ents[0])
	if c.G.Bytes != before {
		t.Fatalf("double invalidation changed occupancy: %d -> %d", before, c.G.Bytes)
	}
	if c.G.Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4", c.G.Invalidations)
	}
	// Overwriting a key refunds the replaced entry's bytes.
	c.Put(&Entry[tnode]{Key: "key1"})
	if want := sumEntryBytes(c); c.G.Bytes != want {
		t.Fatalf("after overwrite: occupancy %d, entries hold %d", c.G.Bytes, want)
	}
	// A stale invalidation after a clear must not underflow the fresh gauge.
	c.Clear()
	c.Invalidate(ents[3])
	if c.G.Bytes != 0 {
		t.Fatalf("post-clear stale invalidation left occupancy %d", c.G.Bytes)
	}
}
