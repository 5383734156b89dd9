package fastsim

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/isa"
	"facile/internal/memocache"
	"facile/internal/obs"
)

// replayFrom is the fast/residual simulator: it walks the recorded action
// graph starting at entry e, performing only the dynamic work (functional
// execution, predictor and cache-simulator calls) and verifying each
// dynamic result against the recorded forks. It returns when the program
// halts, when an action cache miss hands control back to the slow
// simulator, or when the instruction budget is exhausted at a step
// boundary.
//
// Structural faults — a severed chain, or a step whose replay exceeds the
// action watchdog — never panic: the offending entry is invalidated, the
// partial replay is discarded, and the step re-runs on the slow simulator
// (degradeStep). The replay tracks s.ops, the count of sink-level
// operations it has completed this step, so the degraded re-run knows
// exactly where to switch from consuming replayed values to running live.
func (s *Sim) replayFrom(e *memocache.Entry[action], maxInsts uint64) {
	st := s.eng.st
	s.path = s.path[:0]
	s.ops = 0
	var acts uint64
	a := e.First
	for {
		if a == nil {
			if st.Halted {
				// Legitimate end of a halting entry: recording stops at the
				// halt commit (after its aHalted test and final aShift)
				// without sealing an aEnd, so the replayed chain ends here.
				s.replays++
				s.obs.Event(obs.EvStepReplayed, acts)
				s.hStepActs.Observe(acts)
				s.done = true
				return
			}
			// Recording always seals a live step with aEnd; a nil link
			// mid-chain means the entry is corrupt.
			s.g.Fault(faults.BrokenChain, "nil action link before end of step")
			s.degradeStep(e)
			return
		}
		if !s.interp && fusable(a.kind) {
			// Compiled fast path: execute the superinstruction headed at a —
			// a straight-line run of pure-flow actions — as one fused call
			// sequence. Built lazily per head action and discarded whenever
			// the entry's CVer moves (injection, invalidation).
			fr := a.fused
			if fr == nil || a.fusedVer != e.CVer {
				fr = s.buildFused(a)
				a.fused = fr
				a.fusedVer = e.CVer
				if fr.n > 0 {
					s.cFusedRuns.Inc()
					s.cCompActs.Add(fr.n)
				}
			}
			if fr.n > 0 && acts+fr.n <= s.opt.MaxReplayActions {
				// The bound keeps the watchdog exact: the interpreted loop
				// trips once acts exceeds the maximum, so a run dispatches
				// only if its last action would still pass that check;
				// otherwise the actions replay interpreted and the watchdog
				// trips at the identical count.
				for _, fn := range fr.fns {
					fn(s)
				}
				// Bookkeeping the closures elide is charged per run: nothing
				// inside a run reads cycle, ops, or the instruction counter
				// (only fork actions and step boundaries do, and those always
				// sit between runs), so the batched totals are observationally
				// identical to the interpreter's per-action increments.
				s.cycle += fr.cyc
				s.ops += fr.ops
				s.fastInsts += fr.ins
				acts += fr.n
				s.cFusedDisp.Inc()
				s.cFusedActs.Add(fr.n)
				a = fr.end
				continue
			}
		}
		acts++
		if acts > s.opt.MaxReplayActions {
			// A cycle in a corrupted graph, or a runaway step.
			s.g.Fault(faults.WatchdogReplay,
				fmt.Sprintf("replayed %d actions in one step", acts))
			s.g.WatchdogTrips++
			s.degradeStep(e)
			return
		}
		s.cycle += uint64(a.dcyc)
		switch a.kind {
		case aExec:
			addr, npc := dynExec(st, a.in, a.pc, a.cls)
			s.setSlot(int(a.slot), addr, npc)
			// Log only values the recovery protocol consumes.
			switch {
			case a.cls == isa.ClassLoad || a.cls == isa.ClassStore:
				s.path = append(s.path, addr)
			case needNextPCTest(a.in, a.cls):
				s.path = append(s.path, npc)
			}
			s.ops++ // one sink.exec call covers a following aNextPC test too
			a = a.Next

		case aNextPC:
			v := s.slotNPCAt(int(a.slot))
			next, ok := a.FindFork(v)
			if !ok {
				s.miss(a, e)
				return
			}
			a = next

		case aICache:
			lat := s.eng.mem.Inst(a.pc, s.cycle)
			s.path = append(s.path, lat)
			s.ops++
			next, ok := a.FindFork(lat)
			if !ok {
				s.miss(a, e)
				return
			}
			a = next

		case aDCache:
			lat := s.eng.mem.Data(s.slotAddrAt(int(a.slot)), s.cycle, a.flags&flagWrite != 0)
			s.path = append(s.path, lat)
			s.ops++
			next, ok := a.FindFork(lat)
			if !ok {
				s.miss(a, e)
				return
			}
			a = next

		case aPredict:
			npc := s.eng.pred.Predict(a.in, a.pc)
			s.path = append(s.path, npc)
			s.ops++
			next, ok := a.FindFork(npc)
			if !ok {
				s.miss(a, e)
				return
			}
			a = next

		case aUpdate:
			s.eng.pred.Update(a.in, a.pc, s.slotNPCAt(int(a.slot)), a.flags&flagMispred != 0)
			s.ops++
			a = a.Next

		case aShift:
			s.shiftSlots(int(a.slot))
			s.fastInsts += uint64(a.slot)
			s.ops++
			a = a.Next

		case aHalted:
			// The halt flag is a dynamic result like any other: follow the
			// recorded fork so a replayed halting step still performs its
			// final aShift (the instructions committed by the halt cycle).
			// The chain then ends at a nil link, handled above.
			h := b2u(st.Halted)
			s.path = append(s.path, h)
			s.ops++
			next, ok := a.FindFork(h)
			if !ok {
				s.miss(a, e)
				return
			}
			a = next

		case aEnd:
			// Step boundary: refresh the recovery snapshot, then chain to
			// the next entry (the paper's INDEX action follows the link
			// rather than doing a full cache lookup).
			s.replays++
			s.obs.Event(obs.EvStepReplayed, acts)
			s.hStepActs.Observe(acts)
			s.curKey = a.NextKey
			s.keyEnt = e
			s.startBase = s.base
			s.startCycle = s.cycle
			s.path = s.path[:0]
			s.ops = 0
			acts = 0
			if maxInsts > 0 && s.slowInsts+s.fastInsts >= maxInsts {
				return // Run's loop notices the budget; engine stays stale
			}
			if s.g.Hooked() {
				// Fault injection / self-check sampling are per-step
				// policies applied by the Run loop; hand each chained step
				// back instead of following the link directly.
				return
			}
			if a.Link == nil || a.LinkGen != s.ac.G.Gen {
				le := s.ac.Get(a.NextKey)
				if le == nil {
					s.keyMisses++
					s.obs.Event(obs.EvKeyMiss, uint64(len(a.NextKey)))
					return // boundary miss: Run restores the slow simulator
				}
				a.Link = le
				a.LinkGen = s.ac.G.Gen
			}
			e = a.Link
			a = e.First

		default:
			s.g.Fault(faults.BadAction, fmt.Sprintf("unknown action kind %d", a.kind))
			s.degradeStep(e)
			return
		}
	}
}

// miss handles a mid-step action cache miss at dynamic-result action a:
// restore the slow simulator from the step's key, run it in recovery mode
// consuming the values the replay already produced (s.path, whose last
// element is the missing result itself), and record the new control path
// as a fresh fork of a. A recovery that disagrees with the replayed path
// (overrun or incomplete consumption) is a fault: the entry is invalidated
// and the step's recording is abandoned.
func (s *Sim) miss(a *action, e *memocache.Entry[action]) {
	if len(s.path) == 0 {
		// Defensive: aNextPC is the only fork action that does not append
		// to s.path itself — it relies on the preceding aExec having logged
		// the resolved next PC, which a corrupted chain (a flipped cls
		// making needNextPCTest false, or an entry whose first action is a
		// fork) breaks. Recovery alignment needs the missing value, so this
		// is a structural fault, not a value miss: degrade instead of
		// panicking on untrusted cache data.
		s.g.Fault(faults.BrokenChain, "mid-step miss with no replayed dynamic values")
		s.degradeStep(e)
		return
	}
	s.misses++
	s.steps++
	s.obs.Event(obs.EvMidStepMiss, s.ops)
	v := s.path[len(s.path)-1]
	if !s.restoreEngine() {
		// Corrupt step key: recovery alignment is impossible. The drain
		// reset already put the engine back on the architectural stream.
		s.ac.Invalidate(e)
		s.g.DegradedSteps++
		return
	}
	tail := a.AddFork(v)
	s.ac.Charge(e, memocache.ForkBytes)
	rec := &recorder{s: s, ent: e, tail: tail}
	rv := &recoverer{s: s, path: s.path, rec: rec, live: rec}
	s.eng.runStep(rv)
	if rv.overrun || !rv.active {
		kind := faults.RecoveryIncomplete
		detail := "recovery finished without reaching the miss point"
		if rv.overrun {
			kind = faults.RecoveryOverrun
			detail = "recovery cursor overran the replayed path"
		}
		s.g.Fault(kind, detail)
		s.ac.Invalidate(e)
		s.g.DegradedSteps++
		// Drop the half-recorded fork so the dead entry can't replay it.
		a.Forks = a.Forks[:len(a.Forks)-1]
		s.finishSlowStep(nil, nil)
		return
	}
	s.finishSlowStep(rec, nil)
}

// degradeStep abandons a partial replay after a structural fault: the
// offending entry is invalidated, the slow simulator is restored to the
// step-start state, and the step re-runs in recovery mode — consuming the
// dynamic values the replay already produced, without recording anything —
// so the step finishes on the always-correct slow path.
func (s *Sim) degradeStep(e *memocache.Entry[action]) {
	s.steps++
	s.g.DegradedSteps++
	s.ac.Invalidate(e)
	if !s.restoreEngine() {
		return // drained: the engine is already back on the live stream
	}
	rv := &recoverer{
		s:      s,
		path:   s.path,
		useOps: true,
		ops:    s.ops,
		live:   &nopSink{s: s, countSlow: true},
	}
	if rv.ops == 0 {
		rv.goLive() // fault before any replayed operation: run fully live
	}
	s.eng.runStep(rv)
	if rv.overrun {
		s.g.Fault(faults.RecoveryOverrun, "degraded re-run overran the replayed path")
	}
	s.finishSlowStep(nil, nil)
}
