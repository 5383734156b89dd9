package memocache

import (
	"bytes"
	"fmt"
	"testing"

	"facile/internal/snapshot"
)

// warmOf detaches a cache of n entries, each a two-node chain whose head
// forks on two values.
func warmOf(t *testing.T, n int) *Warm[tnode] {
	t.Helper()
	c := NewCache[tnode](0, nil)
	for i := 0; i < n; i++ {
		e := &Entry[tnode]{Key: fmt.Sprintf("k%03d", (i*37)%n)}
		head := &tnode{v: int64(i)}
		*head.AddFork(1) = &tnode{v: -1}
		*head.AddFork(2) = &tnode{v: -2}
		head.Next = &tnode{v: 7}
		head.Next.NextKey = "succ"
		e.First = head
		c.Put(e)
		c.Charge(e, 100)
	}
	w := c.Detach(&tcodec)
	if w == nil || w.Entries() != uint64(n) {
		t.Fatalf("detached %d entries, want %d", w.Entries(), n)
	}
	return w
}

func save(w *Warm[tnode]) []byte {
	sw := snapshot.NewWriter()
	w.Save(sw)
	return sw.Payload()
}

// TestWarmSaveDeterministic: equal caches serialize to equal bytes (the
// walk is key-sorted), the property content-addressed storage and
// cross-node export rely on, and a load saves back to the same bytes.
func TestWarmSaveDeterministic(t *testing.T) {
	w := warmOf(t, 40)
	a, b := save(w), save(w)
	if !bytes.Equal(a, b) {
		t.Fatal("two Saves of the same cache produced different bytes")
	}
	back, err := LoadWarm(snapshot.NewReader(a), &tcodec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(back), a) {
		t.Fatal("a loaded cache saved different bytes")
	}
}

// TestAdoptRefusals covers the shared guard rails: a nil or empty cache, a
// cache that already holds entries, and a cap smaller than the adopted
// occupancy are refused; adoption spends the detached cache and keeps its
// generation.
func TestAdoptRefusals(t *testing.T) {
	w := warmOf(t, 3)
	if NewCache[tnode](0, nil).Detach(&tcodec) != nil {
		t.Error("detaching an empty cache should return nil")
	}

	full := NewCache[tnode](0, nil)
	full.Put(&Entry[tnode]{Key: "x"})
	if full.Adopt(w) {
		t.Error("Adopt accepted a cache that already holds entries")
	}
	tiny := NewCache[tnode](16, nil)
	if tiny.Adopt(w) {
		t.Error("Adopt accepted a cache larger than the cap")
	}
	fresh := NewCache[tnode](0, nil)
	if fresh.Adopt(nil) {
		t.Error("Adopt accepted nil")
	}
	if fresh.Adopt(&Warm[tnode]{}) {
		t.Error("Adopt accepted an empty cache")
	}
	gen, bs := w.gen, w.Bytes()
	if !fresh.Adopt(w) {
		t.Fatal("Adopt refused a valid cache")
	}
	if fresh.Len() != 3 || fresh.G.Bytes != bs || fresh.G.Gen != gen {
		t.Errorf("adopted %d entries, %d bytes, gen %d; want 3, %d, %d",
			fresh.Len(), fresh.G.Bytes, fresh.G.Gen, bs, gen)
	}
	if fresh.G.TotalBytes != 0 {
		t.Errorf("adoption counted %d bytes toward this run's total", fresh.G.TotalBytes)
	}
	// Ownership transferred: the warm cache is spent.
	if w.Entries() != 0 || w.Bytes() != 0 {
		t.Errorf("adopted Warm not spent: %d entries, %d bytes", w.Entries(), w.Bytes())
	}
	if NewCache[tnode](0, nil).Adopt(w) {
		t.Error("Adopt accepted an already-adopted cache")
	}
}

// header writes the version word and a header announcing entries entries
// that charge total bytes.
func header(w *snapshot.Writer, entries, total uint64) {
	w.U64(tcodec.Version)
	w.U64(0) // gen
	w.U64(total)
	w.U64(entries)
}

// leaf writes one node with no forks whose next link is nil.
func leaf(w *snapshot.Writer) {
	w.Bool(true)
	w.I64(0)
	w.String("")
	w.U64(0)
	w.Bool(false)
}

// TestLoadWarmRejectsBadAccounting: entry bytes must add up to the header
// exactly, without a wrapping sum, and keys must be distinct.
func TestLoadWarmRejectsBadAccounting(t *testing.T) {
	for _, tc := range []struct {
		name    string
		total   uint64
		entries []uint64
		keys    []string
	}{
		// 2⁶³ + 2⁶³ wraps to the header's 0.
		{"wrapping-sum", 0, []uint64{1 << 63, 1 << 63}, []string{"a", "b"}},
		{"entry-over-header", 10, []uint64{11}, []string{"a"}},
		{"short-sum", 10, []uint64{4, 5}, []string{"a", "b"}},
		{"duplicate-key", 10, []uint64{5, 5}, []string{"a", "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := snapshot.NewWriter()
			header(w, uint64(len(tc.entries)), tc.total)
			for i, b := range tc.entries {
				w.String(tc.keys[i])
				w.U64(b)
				leaf(w)
			}
			if _, err := LoadWarm(snapshot.NewReader(w.Payload()), &tcodec); err == nil {
				t.Fatal("loaded")
			}
		})
	}
}
