package fastsim

import (
	"facile/internal/faults"
	"facile/internal/memocache"
)

// injectFault corrupts cache entry e according to inj. It runs only under
// a configured faults.Injector (tests and fault drills); each corruption
// is crafted so the corresponding detection + recovery path must fire.
func (s *Sim) injectFault(e *memocache.Entry[action], inj faults.Injection) {
	// Any mutation of the recorded chain invalidates the derived compiled
	// state: bump the entry's version so stale superinstructions are
	// discarded and the corruption is re-validated on the next replay.
	e.CVer++
	ij := s.opt.Inject
	switch inj {
	case faults.InjBreakChain:
		// Sever a next link partway into the entry. Only next-linked
		// actions qualify (severing a fork would read as a value miss, not
		// a broken chain); an entry with none gets its head severed.
		var candidates []*action
		a := e.First
		for n := 0; a != nil && n < 64; n++ {
			if a.Next != nil && a.kind != aEnd && a.Next.kind != aEnd {
				candidates = append(candidates, a)
			}
			a = a.Spine()
		}
		if len(candidates) > 0 {
			candidates[ij.Rand()%uint64(len(candidates))].Next = nil
		} else {
			e.First = nil
		}

	case faults.InjFlipFork:
		// Flip a recorded fork value: the live dynamic result no longer
		// matches any fork, which reads as a first-time value (a miss) and
		// recovers through the ordinary recovery-stack protocol.
		a := e.First
		for n := 0; a != nil && n < 64; n++ {
			if len(a.Forks) > 0 {
				f := &a.Forks[ij.Rand()%uint64(len(a.Forks))]
				f.Val ^= 1 << 62
				return
			}
			a = a.Spine()
		}
		e.First = nil // no forks to flip: degrade to a severed chain

	case faults.InjTruncate:
		// Truncate the recorded successor key so the step-start state can
		// no longer be restored from it (corrupt-key fault → drain reset).
		// The cached link is dropped too; otherwise the replay would chain
		// through it without ever touching the corrupt key.
		a := e.First
		for n := 0; a != nil && n < 256; n++ {
			if a.kind == aEnd {
				if len(a.NextKey) > 1 {
					a.NextKey = a.NextKey[:len(a.NextKey)/2]
				}
				a.Link = nil
				return
			}
			a = a.Spine()
		}
		e.First = nil // halting entry has no aEnd: degrade to a severed chain

	case faults.InjGenBump:
		// Clear the cache underneath the in-flight replay, exactly as
		// clear-when-full would mid-run.
		s.ac.Clear()
	}
}
