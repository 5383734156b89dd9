package rt

import (
	"encoding/binary"

	"facile/internal/memocache"
	"facile/internal/obs"
)

// node is one action in the specialized action cache: an executed dynamic
// basic block, identified by its action number (the block ID), plus the
// run-time static placeholder data its dynamic instructions consume.
// Dynamic-result nodes (dynamic branches and dynamic next-step arguments)
// fork by observed value; end-of-step nodes carry the global lifts and the
// link to the next cache entry (the paper's INDEX action).
type node struct {
	blockID int32
	// keyVer (end-of-step nodes only) marks nextKey as vetted (validKey
	// passed) while it equals keyMark of the owning entry; zero means never
	// vetted. Fault injection and invalidation bump cver, and a warm load
	// builds fresh nodes, so every path that brings untrusted bytes in
	// forces a re-vet. It sits in blockID's padding, so the mark costs no
	// memory.
	keyVer uint32
	data   []int64 // placeholder values, in dynamic-segment order
	next   *node
	forks  []nfork

	// end-of-step (DTRet) only:
	nextKey string
	link    *centry
	linkGen uint64

	// Derived compiled-replay state (see compile.go): the superinstruction
	// headed by this node, valid only while fusedVer equals the owning
	// entry's cver. Never serialized — snapshot/warmio enumerate fields
	// explicitly — and rebuilt lazily after warm adoption.
	fused    *fusedRun
	fusedVer uint64
}

type nfork struct {
	val  int64
	next *node
}

func (n *node) findFork(v int64) (*node, bool) {
	for i := range n.forks {
		if n.forks[i].val == v {
			return n.forks[i].next, true
		}
	}
	return nil, false
}

// centry is one specialized action cache entry, keyed by the serialized
// run-time static arguments of main.
type centry struct {
	key   string
	first *node
	gen   uint64
	bytes uint64 // bytes charged against the gauge for this entry

	// cver versions the entry's derived replay state: any mutation of the
	// recorded chain (fault injection, invalidation) bumps it, so stale
	// superinstructions and successor-key vetting marks are discarded and
	// the mutated chain is re-validated before its next replay.
	cver uint64
}

// keyMark is the node.keyVer value that marks a successor key as vetted at
// the entry's current cver. A mark could equal a stale one, or the
// unvetted zero, only after cver moved 2³²−1 times; cver moves once per
// fault on the entry, and the first invalidation drops the entry for good.
func (e *centry) keyMark() uint32 { return uint32(e.cver) + 1 }

// Byte-accounting model for the cache-size cap and the Table 2 metric.
const (
	nodeBytes  = 72
	forkBytes  = 24
	entryBytes = 48
	valBytes   = 8
)

// acache is the specialized action cache with clear-when-full (§6.1).
// Byte accounting, the clear policy, and the staleness generation live in
// memocache.Gauge, shared with internal/arch/fastsim.
type acache struct {
	m   map[string]*centry
	g   memocache.Gauge
	rec *obs.Recorder
}

func newACache(capBytes uint64, rec *obs.Recorder) *acache {
	return &acache{
		m:   make(map[string]*centry),
		g:   memocache.Gauge{CapBytes: capBytes},
		rec: rec,
	}
}

func (c *acache) get(key string) *centry { return c.m[key] }

func (c *acache) put(e *centry) {
	e.gen = c.g.Gen
	if old := c.m[e.key]; old != nil && old != e {
		// Re-recording a key (e.g. after a corrupt-key recovery re-ran a
		// step the cache already held) replaces the old entry; refund it or
		// its bytes stay charged forever.
		c.g.Refund(old.bytes)
		old.bytes = 0
	}
	c.m[e.key] = e
	c.charge(e, uint64(entryBytes+len(e.key)))
	if c.g.Over() {
		// Clear when full — on the put that overflowed the cap, including
		// the entry just installed. In-progress replays detect stale
		// entries via the generation.
		c.clearNow()
	}
}

// charge accounts n freshly memoized bytes to the gauge and, when the bytes
// belong to a particular entry, to that entry — so a later invalidation can
// refund exactly what the entry charged.
func (c *acache) charge(e *centry, n uint64) {
	if e != nil {
		e.bytes += n
	}
	c.g.Charge(n)
}

// invalidate discards entry e after a fault, refunding its charged bytes.
// The refund happens only while e is still the cache's current entry for
// its key: after a clear the gauge was already reset, and refunding a stale
// entry would double-count. The generation moves either way so any
// replay-cached link to e re-validates and misses.
func (c *acache) invalidate(e *centry) {
	e.cver++ // discard derived compiled state along with the entry
	var refund uint64
	if cur, ok := c.m[e.key]; ok && cur == e {
		delete(c.m, e.key)
		refund = e.bytes
	}
	e.bytes = 0
	c.g.Invalidated(refund)
	c.rec.Event(obs.EvInvalidation, refund)
}

// clearNow discards the whole cache, as clear-when-full would.
func (c *acache) clearNow() {
	freed := c.g.Bytes
	c.m = make(map[string]*centry)
	c.g.Cleared()
	c.rec.Event(obs.EvClearWhenFull, freed)
}

// buildKey serializes the run-time static inputs of main — the integer
// arguments and the contents of every queue parameter — into the action
// cache key. The encoding is invertible: miss recovery restores main's
// arguments from the key (paper §2.1: "reads its static input from the
// cache entry's index key").
func buildKey(argI []int64, argQ []*Queue) string {
	n := 0
	for range argI {
		n += binary.MaxVarintLen64
	}
	for _, q := range argQ {
		n += binary.MaxVarintLen64 * (1 + len(q.data))
	}
	buf := make([]byte, n)
	off := 0
	for _, v := range argI {
		off += binary.PutVarint(buf[off:], v)
	}
	for _, q := range argQ {
		off += binary.PutUvarint(buf[off:], uint64(q.Size()))
		for _, v := range q.data {
			off += binary.PutVarint(buf[off:], v)
		}
	}
	return string(buf[:off])
}

// validKey reports whether key would parse as main's run-time static
// arguments, without mutating anything. The fast simulator uses it to
// vet a recorded successor key before adopting it — a corrupt key caught
// here is recoverable; one caught after adoption is not. Replay runs it
// once per owning entry version (node.keyVer), not once per step.
func validKey(key string, nArgI int, argQ []*Queue) bool {
	off := 0
	for i := 0; i < nArgI; i++ {
		_, k := varintAt(key, off)
		if k <= 0 {
			return false
		}
		off += k
	}
	for _, q := range argQ {
		sz, k := uvarintAt(key, off)
		if k <= 0 || sz > uint64(q.Cap()) {
			return false
		}
		off += k
		for j := 0; j < int(sz)*q.Width(); j++ {
			_, k := varintAt(key, off)
			if k <= 0 {
				return false
			}
			off += k
		}
	}
	return off == len(key)
}

// parseKey restores main's arguments from a cache key.
func parseKey(key string, argI []int64, argQ []*Queue) bool {
	off := 0
	for i := range argI {
		v, k := varintAt(key, off)
		if k <= 0 {
			return false
		}
		argI[i] = v
		off += k
	}
	for _, q := range argQ {
		sz, k := uvarintAt(key, off)
		if k <= 0 || sz > uint64(q.Cap()) {
			return false
		}
		off += k
		q.data = q.data[:0]
		for j := 0; j < int(sz)*q.Width(); j++ {
			v, k := varintAt(key, off)
			if k <= 0 {
				return false
			}
			q.data = append(q.data, v)
			off += k
		}
	}
	return off == len(key)
}

// uvarintAt decodes the unsigned varint at key[off:] in place, with
// binary.Uvarint's results: the value and the bytes read, 0 bytes for a
// short buffer, negative for an overflow.
func uvarintAt(key string, off int) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; off+i < len(key); i++ {
		if i == binary.MaxVarintLen64 {
			return 0, -(i + 1)
		}
		b := key[off+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// varintAt is uvarintAt for the zig-zag signed encoding of binary.Varint.
func varintAt(key string, off int) (int64, int) {
	ux, k := uvarintAt(key, off)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, k
}
