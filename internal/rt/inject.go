package rt

import (
	"facile/internal/faults"
	"facile/internal/memocache"
)

// Deterministic fault injection: corrupt a cache entry just before it
// replays, so tests can drive every recovery path on demand. The corruption
// mirrors what a real defect (memory error, stale pointer, encoding bug)
// would produce; recovery must keep simulated results identical to the
// slow simulator's.

func (m *Machine) injectFault(e *memocache.Entry[node], inj faults.Injection) {
	// Any mutation of the recorded chain invalidates the derived replay
	// state: bump the entry's version so stale fused runs are discarded
	// and the corruption is re-validated on the next replay.
	e.CVer++
	ij := m.opt.Inject
	switch inj {
	case faults.InjBreakChain:
		// Sever a sequential link mid-chain (BrokenChain on replay).
		var cands []*node
		for n, hops := e.First, 0; n != nil && hops < 64; hops++ {
			if n.Next != nil {
				cands = append(cands, n)
			}
			n = n.Spine()
		}
		if len(cands) == 0 {
			e.First = nil
			return
		}
		cands[int(ij.Rand()%uint64(len(cands)))].Next = nil

	case faults.InjFlipFork:
		// Corrupt a recorded dynamic-result value so the live value misses
		// its fork: recovery treats it as a benign first-time result.
		for n, hops := e.First, 0; n != nil && hops < 64; hops++ {
			if len(n.Forks) > 0 {
				f := int(ij.Rand() % uint64(len(n.Forks)))
				n.Forks[f].Val ^= 1 << 62
				return
			}
			n = n.Spine()
		}
		e.First = nil

	case faults.InjTruncate:
		// Truncate recorded state: either a node's placeholder data (caught
		// by the per-node length check) or a step's successor key (caught by
		// validKey at the step boundary). The surviving key byte gets its
		// continuation bit set so the truncation can never still parse.
		wantKey := ij.Rand()&1 == 0
		var ret *node
		for n, hops := e.First, 0; n != nil && hops < 256; hops++ {
			if !wantKey && len(n.data) > 0 {
				n.data = n.data[:len(n.data)/2]
				return
			}
			if n.NextKey != "" {
				ret = n
			}
			n = n.Spine()
		}
		if ret != nil && len(ret.NextKey) > 0 {
			b := []byte(ret.NextKey[:(len(ret.NextKey)+1)/2])
			b[len(b)-1] |= 0x80
			ret.NextKey = string(b)
			ret.Link = nil // a cached link must not bypass the corrupt key
			return
		}
		e.First = nil

	case faults.InjGenBump:
		// Force a mid-replay generation bump, as clear-when-full would.
		m.ac.Clear()
	}
}
