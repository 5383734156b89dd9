package fastsim

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/isa"
	"facile/internal/memocache"
	"facile/internal/obs"
)

// Self-check mode: a sampled fraction of replayable steps is run on the
// slow simulator *instead of* being replayed, with a verifying sink that
// walks the recorded action chain alongside the live run. Every recorded
// action must match the live operation in kind, rt-static fields, and
// cycle delta; every recorded fork must cover the live dynamic value (a
// first-time value is the ordinary miss case and extends the entry, just
// as a replay miss would). A structural disagreement means the cache entry
// no longer describes what the slow simulator actually does — a
// self-check-divergence fault: the entry is invalidated and the step
// finishes live, unrecorded.
//
// Because the checked step runs entirely on the always-correct slow path
// (the recorded actions are only *compared*, never *applied*), self-check
// cannot perturb architectural state or cycle counts.

type scMode uint8

const (
	scVerify scMode = iota // comparing live operations against the chain
	scRecord               // first-time dynamic value: extending the entry
	scLive                 // diverged: finish the step live, unrecorded
)

// checker is the self-check sink.
type checker struct {
	s         *Sim
	ent       *memocache.Entry[action]
	a         *action // next expected recorded action
	lastCycle uint64
	rec       *recorder // active in scRecord mode
	mode      scMode
}

// diverge flags a structural disagreement between the recorded entry and
// the live slow step.
func (c *checker) diverge(detail string) {
	s := c.s
	s.fault(faults.SelfCheckDivergence, detail)
	s.scDiverged++
	s.degraded++
	s.ac.Invalidate(c.ent)
	c.mode = scLive
}

// expect consumes the next recorded action, requiring kind and the cycle
// delta to match the live run. It returns nil (after flagging divergence)
// on any mismatch.
func (c *checker) expect(kind uint8) *action {
	a := c.a
	if a == nil {
		c.diverge("action chain ended before the step did")
		return nil
	}
	if a.kind != kind {
		c.diverge(fmt.Sprintf("recorded action kind %d, live op %d", a.kind, kind))
		return nil
	}
	if want := c.s.eng.cycle - c.lastCycle; uint64(a.dcyc) != want {
		c.diverge(fmt.Sprintf("recorded cycle delta %d, live %d", a.dcyc, want))
		return nil
	}
	c.lastCycle = c.s.eng.cycle
	return a
}

// forkOn follows the fork recorded for live value v, or — for a value
// never recorded — extends the entry with a fresh fork and switches to
// recording, exactly as miss recovery would.
func (c *checker) forkOn(a *action, v uint64) {
	if next, ok := a.FindFork(v); ok {
		c.a = next
		return
	}
	s := c.s
	s.misses++
	s.obs.Event(obs.EvMidStepMiss, 0)
	tail := a.AddFork(v)
	s.ac.Charge(c.ent, memocache.ForkBytes)
	c.rec = &recorder{s: s, ent: c.ent, tail: tail, lastCycle: s.eng.cycle}
	c.mode = scRecord
}

func (c *checker) exec(slot int, pc uint64, in isa.Inst, cls isa.Class) (uint64, uint64) {
	if c.mode == scRecord {
		return c.rec.exec(slot, pc, in, cls)
	}
	addr, npc := dynExec(c.s.eng.st, in, pc, cls)
	c.s.setSlot(slot, addr, npc)
	if c.mode != scVerify {
		return addr, npc
	}
	a := c.expect(aExec)
	if a == nil {
		return addr, npc
	}
	if int(a.slot) != slot || a.pc != pc || a.in != in || a.cls != cls {
		c.diverge("exec action fields disagree with live fetch")
		return addr, npc
	}
	c.a = a.Next
	if needNextPCTest(in, cls) {
		if t := c.expect(aNextPC); t != nil {
			if int(t.slot) != slot {
				c.diverge("next-pc test slot disagrees")
			} else {
				c.forkOn(t, npc)
			}
		}
	}
	return addr, npc
}

func (c *checker) icache(pc uint64) uint64 {
	if c.mode == scRecord {
		return c.rec.icache(pc)
	}
	lat := c.s.eng.mem.Inst(pc, c.s.eng.cycle)
	if c.mode == scVerify {
		if a := c.expect(aICache); a != nil {
			if a.pc != pc {
				c.diverge("icache pc disagrees")
			} else {
				c.forkOn(a, lat)
			}
		}
	}
	return lat
}

func (c *checker) dcache(slot int, addr uint64, write bool) uint64 {
	if c.mode == scRecord {
		return c.rec.dcache(slot, addr, write)
	}
	lat := c.s.eng.mem.Data(addr, c.s.eng.cycle, write)
	if c.mode == scVerify {
		if a := c.expect(aDCache); a != nil {
			if int(a.slot) != slot || (a.flags&flagWrite != 0) != write {
				c.diverge("dcache action fields disagree")
			} else {
				c.forkOn(a, lat)
			}
		}
	}
	return lat
}

func (c *checker) predict(pc uint64, in isa.Inst) uint64 {
	if c.mode == scRecord {
		return c.rec.predict(pc, in)
	}
	npc := c.s.eng.pred.Predict(in, pc)
	if c.mode == scVerify {
		if a := c.expect(aPredict); a != nil {
			if a.pc != pc || a.in != in {
				c.diverge("predict action fields disagree")
			} else {
				c.forkOn(a, npc)
			}
		}
	}
	return npc
}

func (c *checker) update(slot int, pc uint64, in isa.Inst, actual uint64, mispred bool) {
	if c.mode == scRecord {
		c.rec.update(slot, pc, in, actual, mispred)
		return
	}
	c.s.eng.pred.Update(in, pc, actual, mispred)
	if c.mode == scVerify {
		if a := c.expect(aUpdate); a != nil {
			if int(a.slot) != slot || a.pc != pc || a.in != in ||
				(a.flags&flagMispred != 0) != mispred {
				c.diverge("update action fields disagree")
			} else {
				c.a = a.Next
			}
		}
	}
}

func (c *checker) halted() bool {
	if c.mode == scRecord {
		return c.rec.halted()
	}
	h := c.s.eng.st.Halted
	if c.mode == scVerify {
		if a := c.expect(aHalted); a != nil {
			c.forkOn(a, b2u(h))
		}
	}
	return h
}

func (c *checker) shifted(k int) {
	if c.mode == scRecord {
		c.rec.shifted(k)
		return
	}
	c.s.shiftSlots(k)
	c.s.slowInsts += uint64(k)
	if c.mode == scVerify {
		if a := c.expect(aShift); a != nil {
			if int(a.slot) != k {
				c.diverge("shift width disagrees")
			} else {
				c.a = a.Next
			}
		}
	}
}

// selfCheckStep re-executes one cached step on the slow simulator,
// verifying the recorded entry against the live run (see checker).
func (s *Sim) selfCheckStep(e *memocache.Entry[action]) {
	s.selfChecks++
	s.steps++
	chk := &checker{s: s, ent: e, a: e.First, lastCycle: s.eng.cycle}
	s.eng.runStep(chk)
	s.cycle = s.eng.cycle
	if s.eng.haltSeen {
		s.done = true
		return
	}
	nextKey := s.eng.snapshotKey()
	switch chk.mode {
	case scVerify:
		a := chk.a
		if a == nil || a.kind != aEnd {
			chk.diverge("recorded chain and live step end in different places")
			return
		}
		if a.NextKey != nextKey {
			chk.diverge("recorded successor key disagrees with live state")
			return
		}
		if want := s.eng.cycle - chk.lastCycle; uint64(a.dcyc) != want {
			chk.diverge(fmt.Sprintf("end-of-step cycle delta %d, live %d", a.dcyc, want))
			return
		}
	case scRecord:
		end := &action{kind: aEnd}
		end.NextKey = nextKey
		chk.rec.emit(end)
	}
}
