package fastsim

// Warm-cache serialization: a detached action cache round-trips through
// the snapshot codec so a job server can persist lineage caches across
// process restarts (internal/cachestore). The encoding walks each entry's
// action tree in a fixed order, so equal caches yield equal bytes; the
// replay-time link/linkGen fields are deliberately dropped — they are an
// intra-process optimization re-established lazily by key lookup, and a
// loaded cache must never alias entries from a previous process.

import (
	"fmt"
	"sort"

	"facile/internal/isa"
	"facile/internal/snapshot"
)

// WarmFormatVersion identifies the serialized action-tree layout. Bump it
// on any change to the action struct's persisted fields; a store record
// written by another version fails to adopt instead of replaying garbage.
const WarmFormatVersion = 1

// maxWarmEntries bounds how many cache entries a load will reconstruct,
// a backstop against a corrupt count field allocating unbounded memory
// before the codec notices the truncation.
const maxWarmEntries = 1 << 24

// Save serializes the detached cache. The walk is read-only: the cache
// stays parked and adoptable afterwards.
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
		saveAction(w, e.first)
	}
}

// saveAction writes the tree headed by a in pre-order: each action's
// fields, then each fork's value and subtree, then its successor's chain,
// with false for every nil link. It walks next links in a loop and keeps
// the actions whose forks are still being written on an explicit stack, so
// neither a long chain nor deep fork nesting grows the goroutine stack.
func saveAction(w *snapshot.Writer, a *action) {
	var open []walkFrame
	for {
		if a == nil {
			w.Bool(false)
		} else {
			w.Bool(true)
			w.U8(a.kind)
			w.U8(a.flags)
			w.U8(uint8(a.cls))
			w.U64(uint64(a.slot))
			w.U64(uint64(a.dcyc))
			w.U64(a.pc)
			w.U8(uint8(a.in.Op))
			w.U8(a.in.Rd)
			w.U8(a.in.Rs1)
			w.U8(a.in.Rs2)
			w.I64(a.in.Imm)
			w.Bool(a.in.HasImm)
			w.U64(uint64(a.in.Raw))
			w.String(a.nextKey)
			w.U64(uint64(len(a.forks)))
			open = append(open, walkFrame{a: a})
		}
		if len(open) == 0 {
			return
		}
		f := &open[len(open)-1]
		if f.i < len(f.a.forks) {
			w.U64(f.a.forks[f.i].val)
			a = f.a.forks[f.i].next
			f.i++
		} else {
			a = f.a.next
			open = open[:len(open)-1]
		}
	}
}

// walkFrame is an action of an iterative tree walk whose forks are not all
// done: i counts the forks saveAction has written, or the forks loadAction
// has still to read.
type walkFrame struct {
	a *action
	i int
}

// LoadWarmCache reconstructs a detached cache from its serialized form.
// Any structural inconsistency — version skew, an out-of-range action
// kind, a byte-accounting mismatch, a truncated stream — is an error; the
// caller treats it like any other corruption (cold start), never adopting
// a partially decoded cache.
func LoadWarmCache(r *snapshot.Reader) (*WarmCache, error) {
	if v := r.U64(); r.Err() == nil && v != WarmFormatVersion {
		return nil, fmt.Errorf("fastsim: warm-cache format version %d, this build reads %d", v, WarmFormatVersion)
	}
	wc := &WarmCache{m: make(map[string]*centry)}
	wc.gen = r.U64()
	wc.bytes = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxWarmEntries {
		return nil, fmt.Errorf("fastsim: warm cache claims %d entries", n)
	}
	var sum uint64
	for i := uint64(0); i < n; i++ {
		e := &centry{key: r.String(), gen: wc.gen}
		e.bytes = r.U64()
		first, err := loadAction(r)
		if err != nil {
			return nil, err
		}
		e.first = first
		if r.Err() != nil {
			return nil, r.Err()
		}
		if e.first == nil {
			return nil, fmt.Errorf("fastsim: warm cache entry %q has no actions", e.key)
		}
		wc.m[e.key] = e
		sum += e.bytes
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if sum != wc.bytes {
		return nil, fmt.Errorf("fastsim: warm cache accounting mismatch: entries sum to %d bytes, header says %d", sum, wc.bytes)
	}
	if uint64(len(wc.m)) != n {
		return nil, fmt.Errorf("fastsim: warm cache holds %d entries after dedup, header says %d", len(wc.m), n)
	}
	return wc, nil
}

// loadAction reads a tree written by saveAction, with the same explicit
// stack in place of recursion.
func loadAction(r *snapshot.Reader) (*action, error) {
	var head *action
	slot := &head // where the next action read is linked in
	var open []walkFrame
	for {
		if r.Bool() {
			a := &action{}
			a.kind = r.U8()
			if r.Err() == nil && a.kind > aEnd {
				return nil, fmt.Errorf("fastsim: warm cache action kind %d out of range", a.kind)
			}
			a.flags = r.U8()
			a.cls = isa.Class(r.U8())
			a.slot = uint16(r.U64())
			a.dcyc = uint32(r.U64())
			a.pc = r.U64()
			a.in.Op = isa.Opcode(r.U8())
			a.in.Rd = r.U8()
			a.in.Rs1 = r.U8()
			a.in.Rs2 = r.U8()
			a.in.Imm = r.I64()
			a.in.HasImm = r.Bool()
			a.in.Raw = uint32(r.U64())
			a.nextKey = r.String()
			nf := r.U64()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if nf > maxWarmEntries {
				return nil, fmt.Errorf("fastsim: warm cache action claims %d forks", nf)
			}
			*slot = a
			open = append(open, walkFrame{a: a, i: int(nf)})
		} else if r.Err() != nil {
			return nil, r.Err()
		}
		if len(open) == 0 {
			return head, nil
		}
		f := &open[len(open)-1]
		if f.i > 0 {
			f.i--
			f.a.forks = append(f.a.forks, fork{val: r.U64()})
			slot = &f.a.forks[len(f.a.forks)-1].next
		} else {
			slot = &f.a.next
			open = open[:len(open)-1]
		}
	}
}
