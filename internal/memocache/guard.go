package memocache

import (
	"facile/internal/faults"
	"facile/internal/obs"
	"facile/internal/snapshot"
)

// FaultStats counts what an engine's fault layer has seen.
type FaultStats struct {
	Faults               uint64 // typed faults detected during replay, recovery or self-check
	DegradedSteps        uint64 // steps re-run on the slow simulator after a fault
	WatchdogTrips        uint64 // replay-length or slow-step watchdog firings
	SelfChecks           uint64 // replayable steps re-executed slow for verification
	SelfCheckDivergences uint64 // self-checks that disagreed with the cache
}

// Payload is an engine's description of its node type to the fault layer:
// how to reach a node's links, and what the corrupter and the verify walk
// need to know of the fields around them.
type Payload[N any] struct {
	Engine string // names the engine in fault reports
	Links  func(n *N) *Links[N]
	// Same reports whether recorded node a holds the fields a recorder
	// gave live node b, links aside (the walk compares successor keys).
	Same func(a, b *N) bool
	// Severable reports whether severing n's next link reads as a broken
	// chain on replay (nil: every node with a next link does).
	Severable func(n *N) bool
	// TruncData halves n's placeholder data and reports whether n held any
	// (nil: nodes carry none, so truncation always hits a successor key).
	TruncData func(n *N) bool
}

// selfCheckSeed seeds the self-check sampler.
const selfCheckSeed = 0xD1B54A32D192ED03

// Guard is the fault layer over one engine's cache: the fault log, the
// per-step policies the engine's Run loop applies at each step boundary
// (fault injection and self-check sampling), the corrupter injection
// drives, and the verify walk of a self-checked step. An engine keeps one
// by value and reports faults through it.
type Guard[N any] struct {
	FaultStats
	Last *faults.Fault // the most recent fault (nil if none)

	// SampleState is the self-check sampler's PRNG state. Snapshots carry
	// it, so a restored run samples the same steps.
	SampleState uint64

	c      *Cache[N]
	p      *Payload[N]
	inject *faults.Injector
	rate   float64
}

// NewGuard returns the fault layer over c: inject, when non-nil, corrupts
// entries just before replay, and selfCheck is the fraction (0..1) of
// replayable steps re-executed slow to verify their entries.
func NewGuard[N any](c *Cache[N], p *Payload[N], inject *faults.Injector, selfCheck float64) Guard[N] {
	return Guard[N]{SampleState: selfCheckSeed, c: c, p: p, inject: inject, rate: selfCheck}
}

// Fault logs one detected fault.
func (g *Guard[N]) Fault(k faults.Kind, detail string) {
	g.Faults++
	g.Last = faults.New(k, g.p.Engine, detail)
	g.c.rec.EventDetail(obs.EvFault, 0, k.String())
}

// Hooked reports whether per-step policies are active, in which case a
// replay hands every chained step back to the Run loop instead of
// following cache links itself.
func (g *Guard[N]) Hooked() bool { return g.inject != nil || g.rate > 0 }

// Lookup returns the entry for the next step's key, after the injection
// policy had its chance to corrupt it, and whether the sampler picked the
// step for a self-check instead of a replay. A nil entry is a key miss,
// also when an injected generation bump cleared the cache.
func (g *Guard[N]) Lookup(key string) (*Entry[N], bool) {
	e := g.c.Get(key)
	if e == nil {
		return nil, false
	}
	if inj := g.inject.Arm(); inj != faults.InjNone {
		g.Corrupt(e, inj)
		if e = g.c.Get(key); e == nil {
			return nil, false
		}
	}
	return e, g.selfCheckDue()
}

// selfCheckDue samples the self-check rate deterministically.
func (g *Guard[N]) selfCheckDue() bool {
	if g.rate <= 0 {
		return false
	}
	if g.rate >= 1 {
		return true
	}
	g.SampleState = faults.XorShift(g.SampleState)
	return float64(g.SampleState>>11)/(1<<53) < g.rate
}

// Corrupt applies inj to entry e, as the injection policy does just before
// e replays. Each corruption is one a real defect (memory error, stale
// pointer, encoding bug) could produce, crafted so that a particular
// detection and recovery path must fire; recovery must keep simulated
// results identical to the slow simulator's. Where e offers nothing to
// corrupt, its head is severed instead, which replays as a broken chain.
func (g *Guard[N]) Corrupt(e *Entry[N], inj faults.Injection) {
	// Any mutation of the chain invalidates derived replay state: bump the
	// entry's version so fused runs and vetting marks are discarded and
	// the corruption is re-validated on the next replay.
	e.CVer++
	p, ij := g.p, g.inject
	switch inj {
	case faults.InjBreakChain:
		// Sever a next link partway in (BrokenChain on replay).
		var cands []*Links[N]
		for n, hops := e.First, 0; n != nil && hops < 64; hops++ {
			l := p.Links(n)
			if l.Next != nil && (p.Severable == nil || p.Severable(n)) {
				cands = append(cands, l)
			}
			n = l.Spine()
		}
		if len(cands) > 0 {
			cands[ij.Rand()%uint64(len(cands))].Next = nil
			return
		}
	case faults.InjFlipFork:
		// Flip a recorded dynamic value: the live value misses its fork,
		// which recovery treats as a benign first-time result.
		for n, hops := e.First, 0; n != nil && hops < 64; hops++ {
			l := p.Links(n)
			if len(l.Forks) > 0 {
				l.Forks[ij.Rand()%uint64(len(l.Forks))].Val ^= 1 << 62
				return
			}
			n = l.Spine()
		}
	case faults.InjTruncate:
		// Truncate placeholder data (caught by the engine's per-node check)
		// or the step's successor key (caught where the engine parses it).
		// The surviving key byte gets its continuation bit set, so the
		// truncated key can never still parse; the cached link goes too,
		// or the replay would chain through it past the corrupt key.
		data := p.TruncData != nil && ij.Rand()&1 != 0
		var end *Links[N]
		for n, hops := e.First, 0; n != nil && hops < 256; hops++ {
			if data && p.TruncData(n) {
				return
			}
			l := p.Links(n)
			if l.NextKey != "" {
				end = l
			}
			n = l.Spine()
		}
		if end != nil {
			b := []byte(end.NextKey[:(len(end.NextKey)+1)/2])
			b[len(b)-1] |= 0x80
			end.NextKey = string(b)
			end.Link = nil
			return
		}
	case faults.InjGenBump:
		// Clear the cache underneath the replay, as clear-when-full would.
		g.c.Clear()
		return
	}
	e.First = nil
}

// SaveCounts writes the fault counters in the order both engines'
// snapshots carry them.
func (g *Guard[N]) SaveCounts(w *snapshot.Writer) {
	w.U64(g.Faults)
	w.U64(g.DegradedSteps)
	w.U64(g.WatchdogTrips)
	w.U64(g.SelfChecks)
	w.U64(g.SelfCheckDivergences)
}

// LoadCounts reads the counters SaveCounts wrote.
func (g *Guard[N]) LoadCounts(r *snapshot.Reader) {
	g.Faults = r.U64()
	g.DegradedSteps = r.U64()
	g.WatchdogTrips = r.U64()
	g.SelfChecks = r.U64()
	g.SelfCheckDivergences = r.U64()
}

// verifyMode is the state of a self-checked step's verify walk.
type verifyMode uint8

const (
	verifying verifyMode = iota // comparing the live step against the chain
	recording                   // past a first-time value: recording its fork
	diverged                    // entry invalidated: finish the step unrecorded
)

// Verify walks an entry's recorded chain alongside a live slow step. The
// step runs on the always-correct slow path and the chain is only
// compared, never applied, so self-checking cannot perturb results. The
// engine's recorder builds each node as it would for a new entry and
// hands it to Match instead of linking it in, and hands each dynamic
// value to Fork. A value with no recorded fork is a benign first-time
// result: the entry gains a fork and the recorder records the rest of the
// step into it, exactly as miss recovery would. Any other disagreement is
// a fault: the entry is invalidated and the step finishes unrecorded.
type Verify[N any] struct {
	mode   verifyMode
	cur    *N // the next recorded node the live step must match
	last   *N // the node matched last, whose forks Fork follows
	ent    *Entry[N]
	g      *Guard[N]
	misses *uint64
}

// Check starts the verify walk of a self-checked step over e. A
// first-time value on the way counts in misses.
func (g *Guard[N]) Check(e *Entry[N], misses *uint64) *Verify[N] {
	g.SelfChecks++
	return &Verify[N]{cur: e.First, ent: e, g: g, misses: misses}
}

// Checking reports whether the recorder should compare its nodes rather
// than record them: true while verifying and after a divergence, false
// when v is nil (a plain recording) or recording a first-time fork.
func (v *Verify[N]) Checking() bool { return v != nil && v.mode != recording }

// diverge records a disagreement between the chain and the live step.
func (v *Verify[N]) diverge(detail string) {
	g := v.g
	g.Fault(faults.SelfCheckDivergence, detail)
	g.SelfCheckDivergences++
	g.DegradedSteps++
	g.c.Invalidate(v.ent)
	v.mode = diverged
}

// Match consumes the next recorded node, which must agree with the live
// node l in the engine's fields and in its successor key.
func (v *Verify[N]) Match(l *N) {
	if v.mode != verifying {
		return
	}
	p, n := v.g.p, v.cur
	switch {
	case n == nil:
		v.diverge("live step ran past the end of the recorded chain")
	case !p.Same(n, l):
		v.diverge("recorded node disagrees with the live step")
	case p.Links(n).NextKey != p.Links(l).NextKey:
		v.diverge("recorded successor key disagrees with the live step")
	default:
		v.last, v.cur = n, p.Links(n).Next
	}
}

// Fork follows the fork the last matched node recorded for live value x.
// For a first-time value it counts a miss, adds the fork, charges it to
// the entry and returns the slot the recorder records the rest of the
// step into; otherwise it returns nil.
func (v *Verify[N]) Fork(x uint64) **N {
	if v.mode != verifying {
		return nil
	}
	l := v.g.p.Links(v.last)
	if next, ok := l.FindFork(x); ok {
		v.cur = next
		return nil
	}
	*v.misses++
	v.g.c.rec.Event(obs.EvMidStepMiss, 0)
	v.mode = recording
	tail := l.AddFork(x)
	v.g.c.Charge(v.ent, ForkBytes)
	return tail
}
