package memocache

import (
	"fmt"
	"sort"

	"facile/internal/snapshot"
)

// Warm is a detached action cache: re-derivable acceleration state that
// can seed a fresh run of the same simulator over the same program and
// options, in this process (Adopt) or a later one (Save, LoadWarm). Only a
// cache that adopts it may mutate its entries, and adoption spends it, so
// a Warm must never be adopted twice.
type Warm[N any] struct {
	m     map[string]*Entry[N]
	bytes uint64
	gen   uint64
	codec *Codec[N]
}

// Entries reports the number of cached entries.
func (w *Warm[N]) Entries() uint64 {
	if w == nil {
		return 0
	}
	return uint64(len(w.m))
}

// Bytes reports the occupancy charged for the cached entries.
func (w *Warm[N]) Bytes() uint64 {
	if w == nil {
		return 0
	}
	return w.bytes
}

// Detach removes and returns the cache's entries, to be saved with codec,
// leaving the cache empty (occupancy refunded, monotonic totals kept). It
// returns nil when the cache holds nothing.
func (c *Cache[N]) Detach(codec *Codec[N]) *Warm[N] {
	if len(c.m) == 0 {
		return nil
	}
	w := &Warm[N]{m: c.m, bytes: c.G.Bytes, gen: c.G.Gen, codec: codec}
	c.m = make(map[string]*Entry[N])
	c.G.Refund(c.G.Bytes)
	return w
}

// Adopt installs w into this empty cache and spends it. It refuses a nil
// or empty w, a cache that holds entries, and a w over this cache's cap.
// The adopted occupancy counts toward clear-when-full but not toward
// TotalBytes, which stays per run.
func (c *Cache[N]) Adopt(w *Warm[N]) bool {
	if w == nil || len(w.m) == 0 || len(c.m) != 0 {
		return false
	}
	if c.G.CapBytes > 0 && w.bytes > c.G.CapBytes {
		return false
	}
	c.m = w.m
	c.G.Bytes = w.bytes
	// Keep the generation the entries' links were tagged with, so cached
	// links re-validate instead of all missing.
	c.G.Gen = w.gen
	w.m = nil
	w.bytes = 0
	return true
}

// Codec is an engine's half of the warm-stream format: a node's fields
// other than its Links, which the shared walk writes.
type Codec[N any] struct {
	Engine  string // prefixes error text
	Version uint64 // the stream's version word: bump on any node-layout change
	Links   func(n *N) *Links[N]
	Save    func(w *snapshot.Writer, n *N)
	// Load fills a fresh node. Read errors stay on r; it returns an error
	// only for a value the node cannot hold.
	Load func(r *snapshot.Reader, n *N) error
}

// maxWarmEntries bounds the entry and fork counts a load will reconstruct,
// so a corrupt count cannot allocate unbounded memory before the reader
// notices the truncation.
const maxWarmEntries = 1 << 24

// Save writes the version word, the header (generation, bytes, entry
// count), then each entry in key order, so equal caches yield equal bytes:
// its key, its bytes and its chain. The walk is read-only.
func (w *Warm[N]) Save(sw *snapshot.Writer) {
	sw.U64(w.codec.Version)
	sw.U64(w.gen)
	sw.U64(w.bytes)
	sw.U64(uint64(len(w.m)))
	keys := make([]string, 0, len(w.m))
	for k := range w.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := w.m[k]
		sw.String(e.Key)
		sw.U64(e.Bytes)
		saveChain(sw, w.codec, e.First)
	}
}

// walkFrame is a node of an iterative chain walk whose forks are not all
// done: i counts the forks saveChain has written, or the forks loadChain
// has still to read.
type walkFrame[N any] struct {
	l *Links[N]
	i int
}

// saveChain writes the chain headed by n in pre-order: each node's fields,
// successor key and fork count, then each fork's value and subtree, then
// its successor's chain, with false for every nil link. It walks next
// links in a loop and keeps the nodes whose forks are still being written
// on an explicit stack, so neither a long chain nor deep fork nesting
// grows the goroutine stack.
func saveChain[N any](w *snapshot.Writer, c *Codec[N], n *N) {
	var open []walkFrame[N]
	for {
		if n == nil {
			w.Bool(false)
		} else {
			w.Bool(true)
			c.Save(w, n)
			l := c.Links(n)
			w.String(l.NextKey)
			w.U64(uint64(len(l.Forks)))
			open = append(open, walkFrame[N]{l: l})
		}
		if len(open) == 0 {
			return
		}
		f := &open[len(open)-1]
		if f.i < len(f.l.Forks) {
			w.U64(f.l.Forks[f.i].Val)
			n = f.l.Forks[f.i].Next
			f.i++
		} else {
			n = f.l.Next
			open = open[:len(open)-1]
		}
	}
}

// LoadWarm reconstructs a detached cache from Save's stream. Any
// inconsistency is an error; the caller falls back to a cold start rather
// than adopting a partially decoded cache.
func LoadWarm[N any](r *snapshot.Reader, c *Codec[N]) (*Warm[N], error) {
	if v := r.U64(); r.Err() == nil && v != c.Version {
		return nil, fmt.Errorf("%s: warm-cache format version %d, this build reads %d", c.Engine, v, c.Version)
	}
	w := &Warm[N]{m: make(map[string]*Entry[N]), codec: c}
	w.gen = r.U64()
	w.bytes = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxWarmEntries {
		return nil, fmt.Errorf("%s: warm cache claims %d entries", c.Engine, n)
	}
	var sum uint64
	for i := uint64(0); i < n; i++ {
		e := &Entry[N]{Key: r.String(), Bytes: r.U64(), Gen: w.gen}
		first, err := loadChain(r, c)
		if err != nil {
			return nil, err
		}
		if first == nil {
			return nil, fmt.Errorf("%s: warm cache entry %q has no nodes", c.Engine, e.Key)
		}
		// sum stays within the header, so this also keeps it from wrapping.
		if e.Bytes > w.bytes-sum {
			return nil, fmt.Errorf("%s: warm cache entry %q claims %d bytes, the header leaves %d",
				c.Engine, e.Key, e.Bytes, w.bytes-sum)
		}
		e.First = first
		w.m[e.Key] = e
		sum += e.Bytes
	}
	if sum != w.bytes {
		return nil, fmt.Errorf("%s: warm cache accounting mismatch: entries sum to %d bytes, header says %d", c.Engine, sum, w.bytes)
	}
	if uint64(len(w.m)) != n {
		return nil, fmt.Errorf("%s: warm cache holds %d entries after dedup, header says %d", c.Engine, len(w.m), n)
	}
	return w, nil
}

// loadChain reads a chain written by saveChain, with the same explicit
// stack in place of recursion. It returns the reader's error, if any.
func loadChain[N any](r *snapshot.Reader, c *Codec[N]) (*N, error) {
	var head *N
	slot := &head // where the next node read is linked in
	var open []walkFrame[N]
	for {
		if r.Bool() {
			n := new(N)
			if err := c.Load(r, n); err != nil {
				return nil, err
			}
			l := c.Links(n)
			l.NextKey = r.String()
			nf := r.U64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nf > maxWarmEntries {
				return nil, fmt.Errorf("%s: warm cache node claims %d forks", c.Engine, nf)
			}
			*slot = n
			open = append(open, walkFrame[N]{l: l, i: int(nf)})
		} else if r.Err() != nil {
			return nil, r.Err()
		}
		if len(open) == 0 {
			return head, nil
		}
		f := &open[len(open)-1]
		if f.i > 0 {
			f.i--
			slot = f.l.AddFork(r.U64())
		} else {
			slot = &f.l.Next
			open = open[:len(open)-1]
		}
	}
}
