package memocache

import "facile/internal/obs"

// Fork is one recorded successor of a dynamic-result node: the path taken
// when the dynamic value equaled Val.
type Fork[N any] struct {
	Val  uint64
	Next *N
}

// Links is the part of a recorded node the cache owns. An engine's node
// type embeds it, so the replay loops read n.Next and n.Forks as promoted
// fields. NextKey, Link and LinkGen belong to step-end nodes: the
// successor step's key and the replay's cached link to its entry (the
// paper's INDEX action), valid while LinkGen equals the cache generation.
// Link is never serialized; it is rebuilt by key lookup.
type Links[N any] struct {
	Next    *N
	Forks   []Fork[N]
	NextKey string
	Link    *Entry[N]
	LinkGen uint64
}

// FindFork returns the successor recorded for dynamic value v, if any.
func (l *Links[N]) FindFork(v uint64) (*N, bool) {
	for i := range l.Forks {
		if l.Forks[i].Val == v {
			return l.Forks[i].Next, true
		}
	}
	return nil, false
}

// AddFork records a fork for value v and returns the slot its successor
// chain is recorded into.
func (l *Links[N]) AddFork(v uint64) **N {
	l.Forks = append(l.Forks, Fork[N]{Val: v})
	return &l.Forks[len(l.Forks)-1].Next
}

// Spine follows the first-recorded path: the next link when present, else
// the first fork.
func (l *Links[N]) Spine() *N {
	if l.Next == nil && len(l.Forks) > 0 {
		return l.Forks[0].Next
	}
	return l.Next
}

// Entry is one specialized action cache entry: the serialized run-time
// static state that keys it and the recorded chain.
type Entry[N any] struct {
	Key   string
	First *N
	Gen   uint64 // cache generation when installed
	Bytes uint64 // bytes charged against the gauge for this entry

	// CVer versions the entry's derived replay state: any mutation of the
	// recorded chain (fault injection, invalidation) bumps it, so stale
	// fused runs and vetting marks are discarded and the mutated chain is
	// re-validated before its next replay.
	CVer uint64
}

// KeyMark is the value a node stores to mark its successor key as vetted
// at the entry's current CVer. A mark could equal a stale one, or the
// unvetted zero, only after CVer moved 2³²−1 times; CVer moves once per
// fault on the entry, and the first invalidation drops the entry for good.
func (e *Entry[N]) KeyMark() uint32 { return uint32(e.CVer) + 1 }

// Byte-accounting costs shared by both engines (node costs are per
// engine): an entry, on top of its key, and one fork.
const (
	EntryBytes = 48
	ForkBytes  = 24
)

// Cache is the specialized action cache with clear-when-full (§6.1).
type Cache[N any] struct {
	G   Gauge
	m   map[string]*Entry[N]
	rec *obs.Recorder
}

// NewCache returns an empty cache capped at capBytes (0 = unlimited) that
// reports clears and invalidations to rec.
func NewCache[N any](capBytes uint64, rec *obs.Recorder) *Cache[N] {
	return &Cache[N]{m: make(map[string]*Entry[N]), G: Gauge{CapBytes: capBytes}, rec: rec}
}

// Get returns the entry installed for key, or nil.
func (c *Cache[N]) Get(key string) *Entry[N] { return c.m[key] }

// Len reports the number of installed entries.
func (c *Cache[N]) Len() int { return len(c.m) }

// Each calls f for every installed entry, in no particular order.
func (c *Cache[N]) Each(f func(*Entry[N])) {
	for _, e := range c.m {
		f(e)
	}
}

// Put installs e at the current generation and charges its fixed cost.
func (c *Cache[N]) Put(e *Entry[N]) {
	e.Gen = c.G.Gen
	if old := c.m[e.Key]; old != nil && old != e {
		// Re-recording a key (e.g. after a corrupt-key recovery re-ran a
		// step the cache already held) replaces the old entry; refund it or
		// its bytes stay charged forever.
		c.G.Refund(old.Bytes)
		old.Bytes = 0
	}
	c.m[e.Key] = e
	c.Charge(e, uint64(EntryBytes+len(e.Key)))
	if c.G.Over() {
		// Clear when full — on the put that overflowed the cap, including
		// the entry just installed. In-progress replays detect stale
		// entries via the generation.
		c.Clear()
	}
}

// Charge accounts n freshly memoized bytes to the gauge and, when the bytes
// belong to a particular entry, to that entry — so a later invalidation can
// refund exactly what the entry charged.
func (c *Cache[N]) Charge(e *Entry[N], n uint64) {
	if e != nil {
		e.Bytes += n
	}
	c.G.Charge(n)
}

// Invalidate discards entry e after a fault, refunding its charged bytes.
// The refund happens only while e is still the cache's current entry for
// its key: after a clear the gauge was already reset, and refunding a stale
// entry would double-count. The generation moves either way so any
// replay-cached link to e re-validates and misses.
func (c *Cache[N]) Invalidate(e *Entry[N]) {
	e.CVer++ // discard derived replay state along with the entry
	var refund uint64
	if cur, ok := c.m[e.Key]; ok && cur == e {
		delete(c.m, e.Key)
		refund = e.Bytes
	}
	e.Bytes = 0
	c.G.Invalidated(refund)
	c.rec.Event(obs.EvInvalidation, refund)
}

// Clear discards the whole cache, as clear-when-full does.
func (c *Cache[N]) Clear() {
	freed := c.G.Bytes
	c.m = make(map[string]*Entry[N])
	c.G.Cleared()
	c.rec.Event(obs.EvClearWhenFull, freed)
}
