package rt

import (
	"reflect"
	"testing"
	"testing/quick"

	"facile/internal/memocache"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(4, 2)
	q.Push([]int64{1, 10})
	q.Push([]int64{2, 20})
	if q.Size() != 2 || q.Front(0) != 1 || q.Front(1) != 10 {
		t.Fatalf("front: %d %d", q.Front(0), q.Front(1))
	}
	if q.Pop() != 1 {
		t.Fatal("pop value")
	}
	if q.Front(0) != 2 || q.Size() != 1 {
		t.Fatal("after pop")
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue(2, 1)
	q.Push([]int64{1})
	q.Push([]int64{2})
	if !q.Full() {
		t.Fatal("should be full")
	}
	q.Push([]int64{3}) // dropped
	if q.Size() != 2 || q.Get(1, 0) != 2 {
		t.Fatal("overflow push must be dropped")
	}
}

func TestQueueGetSetBounds(t *testing.T) {
	q := NewQueue(4, 2)
	q.Push([]int64{5, 6})
	if q.Get(1, 0) != 0 || q.Get(0, 2) != 0 || q.Get(-1, 0) != 0 {
		t.Fatal("out-of-range get must read 0")
	}
	q.Set(5, 0, 99) // no-op
	q.Set(0, 1, 42)
	if q.Get(0, 1) != 42 {
		t.Fatal("set failed")
	}
	if q.Pop(); q.Pop() != 0 {
		t.Fatal("pop of empty must return 0")
	}
}

func TestQueueSnapshotRestore(t *testing.T) {
	q := NewQueue(4, 3)
	q.Push([]int64{1, 2, 3})
	q.Push([]int64{4, 5, 6})
	snap := q.Snapshot()
	q.Pop()
	q.Push([]int64{7, 8, 9})
	q.Restore(snap)
	if q.Size() != 2 || q.Get(0, 0) != 1 || q.Get(1, 2) != 6 {
		t.Fatal("restore mismatch")
	}
}

// Property: buildKey/parseKey round-trip arbitrary argument vectors and
// queue contents — the invertibility miss recovery depends on.
func TestKeyCodecRoundTrip(t *testing.T) {
	f := func(a, b int64, entries []int64) bool {
		argI := []int64{a, b}
		q := NewQueue(8, 2)
		for i := 0; i+1 < len(entries) && !q.Full(); i += 2 {
			q.Push([]int64{entries[i], entries[i+1]})
		}
		key := buildKey(argI, []*Queue{q})
		wantQ := q.Snapshot()

		gotI := make([]int64, 2)
		gotQ := NewQueue(8, 2)
		if !parseKey(key, gotI, []*Queue{gotQ}) {
			return false
		}
		return gotI[0] == a && gotI[1] == b && reflect.DeepEqual(gotQ.Snapshot(), wantQ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct argument vectors produce distinct keys (no aliasing
// between cache entries).
func TestKeyInjectivity(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		k1 := buildKey([]int64{a1, a2}, nil)
		k2 := buildKey([]int64{b1, b2}, nil)
		if a1 == b1 && a2 == b2 {
			return k1 == k2
		}
		return k1 != k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseKeyRejectsCorrupt(t *testing.T) {
	key := buildKey([]int64{1, 2}, nil)
	if parseKey(key+"x", make([]int64, 2), nil) {
		t.Fatal("accepted trailing garbage")
	}
	if parseKey(key[:len(key)-1], make([]int64, 2), nil) {
		t.Fatal("accepted truncated key")
	}
	// queue size exceeding capacity must be rejected
	big := NewQueue(1, 1)
	big.Push([]int64{1})
	k2 := buildKey(nil, []*Queue{big})
	small := NewQueue(1, 1)
	if !parseKey(k2, nil, []*Queue{small}) {
		t.Fatal("same-capacity queue should parse")
	}
}

func TestActionCacheClearGeneration(t *testing.T) {
	c := memocache.NewCache[node](64, nil)
	e1 := &memocache.Entry[node]{Key: "a"}
	c.Put(e1)
	if c.Get("a") != e1 {
		t.Fatal("lookup")
	}
	c.Charge(e1, 1000) // exceed cap
	e2 := &memocache.Entry[node]{Key: "b"}
	c.Put(e2) // the overflowing put clears everything, e2 included
	if c.Get("a") != nil || c.Get("b") != nil {
		t.Fatal("clear-when-full must evict every entry, the overflowing one included")
	}
	if c.G.Gen != e1.Gen+1 {
		t.Fatalf("generation not bumped: %d -> %d", e1.Gen, c.G.Gen)
	}
	if c.G.Clears != 1 {
		t.Fatalf("clears = %d", c.G.Clears)
	}
	e3 := &memocache.Entry[node]{Key: "c"}
	c.Put(e3) // fits in the freshly cleared cache
	if c.Get("c") != e3 {
		t.Fatal("post-clear insert missing")
	}
	if e3.Gen != e1.Gen+1 {
		t.Fatalf("post-clear generation: %d -> %d", e1.Gen, e3.Gen)
	}
}

func TestFindFork(t *testing.T) {
	// rt stores a signed dynamic result as its two's-complement bits.
	neg := int64(-3)
	n := &node{}
	*n.AddFork(7) = &node{blockID: 1}
	*n.AddFork(uint64(neg)) = &node{blockID: 2}
	if f, ok := n.FindFork(7); !ok || f.blockID != 1 {
		t.Fatal("fork 7")
	}
	if f, ok := n.FindFork(uint64(neg)); !ok || f.blockID != 2 {
		t.Fatal("fork -3")
	}
	if _, ok := n.FindFork(0); ok {
		t.Fatal("phantom fork")
	}
}
