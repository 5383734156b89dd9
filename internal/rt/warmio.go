package rt

// Warm-cache serialization for the Facile rt machines, mirroring
// internal/arch/fastsim/warmio.go: a detached action cache round-trips
// through the snapshot codec so lineage caches survive process restarts.
// Replay-time link/linkGen fields are dropped on save — they are rebuilt
// lazily by key lookup after adoption.

import (
	"fmt"
	"sort"

	"facile/internal/snapshot"
)

// WarmFormatVersion identifies the serialized node layout. Bump it on any
// change to the node struct's persisted fields.
const WarmFormatVersion = 1

// maxWarmEntries bounds entry/fork counts a load will reconstruct before
// concluding the stream is corrupt.
const maxWarmEntries = 1 << 24

// Save serializes the detached cache. The walk is read-only.
func (wc *WarmCache) Save(w *snapshot.Writer) {
	w.U64(WarmFormatVersion)
	w.U64(wc.gen)
	w.U64(wc.bytes)
	w.U64(uint64(len(wc.m)))
	keys := make([]string, 0, len(wc.m))
	for k := range wc.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := wc.m[k]
		w.String(e.key)
		w.U64(e.bytes)
		saveNode(w, e.first)
	}
}

// saveNode writes the chain headed by n in pre-order: each node's fields,
// then each fork's value and subtree, then its successor's chain, with
// false for every nil link. It walks next links in a loop and keeps the
// nodes whose forks are still being written on an explicit stack, so
// neither a long chain nor deep fork nesting grows the goroutine stack.
func saveNode(w *snapshot.Writer, n *node) {
	var open []walkFrame
	for {
		if n == nil {
			w.Bool(false)
		} else {
			w.Bool(true)
			w.I64(int64(n.blockID))
			w.I64s(n.data)
			w.String(n.nextKey)
			w.U64(uint64(len(n.forks)))
			open = append(open, walkFrame{n: n})
		}
		if len(open) == 0 {
			return
		}
		f := &open[len(open)-1]
		if f.i < len(f.n.forks) {
			w.I64(f.n.forks[f.i].val)
			n = f.n.forks[f.i].next
			f.i++
		} else {
			n = f.n.next
			open = open[:len(open)-1]
		}
	}
}

// walkFrame is a node of an iterative chain walk whose forks are not all
// done: i counts the forks saveNode has written, or the forks loadNode has
// still to read.
type walkFrame struct {
	n *node
	i int
}

// LoadWarmCache reconstructs a detached cache from its serialized form.
// Any inconsistency is an error; the caller falls back to a cold start
// rather than adopting a partially decoded cache.
func LoadWarmCache(r *snapshot.Reader) (*WarmCache, error) {
	if v := r.U64(); r.Err() == nil && v != WarmFormatVersion {
		return nil, fmt.Errorf("rt: warm-cache format version %d, this build reads %d", v, WarmFormatVersion)
	}
	wc := &WarmCache{m: make(map[string]*centry)}
	wc.gen = r.U64()
	wc.bytes = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxWarmEntries {
		return nil, fmt.Errorf("rt: warm cache claims %d entries", n)
	}
	var sum uint64
	for i := uint64(0); i < n; i++ {
		e := &centry{key: r.String(), gen: wc.gen}
		e.bytes = r.U64()
		first, err := loadNode(r)
		if err != nil {
			return nil, err
		}
		e.first = first
		if r.Err() != nil {
			return nil, r.Err()
		}
		if e.first == nil {
			return nil, fmt.Errorf("rt: warm cache entry %q has no nodes", e.key)
		}
		wc.m[e.key] = e
		sum += e.bytes
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if sum != wc.bytes {
		return nil, fmt.Errorf("rt: warm cache accounting mismatch: entries sum to %d bytes, header says %d", sum, wc.bytes)
	}
	if uint64(len(wc.m)) != n {
		return nil, fmt.Errorf("rt: warm cache holds %d entries after dedup, header says %d", len(wc.m), n)
	}
	return wc, nil
}

// loadNode reads a chain written by saveNode, with the same explicit stack
// in place of recursion.
func loadNode(r *snapshot.Reader) (*node, error) {
	var head *node
	slot := &head // where the next node read is linked in
	var open []walkFrame
	for {
		if r.Bool() {
			n := &node{}
			n.blockID = int32(r.I64())
			n.data = r.I64s()
			n.nextKey = r.String()
			nf := r.U64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nf > maxWarmEntries {
				return nil, fmt.Errorf("rt: warm cache node claims %d forks", nf)
			}
			*slot = n
			open = append(open, walkFrame{n: n, i: int(nf)})
		} else if r.Err() != nil {
			return nil, r.Err()
		}
		if len(open) == 0 {
			return head, nil
		}
		f := &open[len(open)-1]
		if f.i > 0 {
			f.i--
			f.n.forks = append(f.n.forks, nfork{val: r.I64()})
			slot = &f.n.forks[len(f.n.forks)-1].next
		} else {
			slot = &f.n.next
			open = open[:len(open)-1]
		}
	}
}
