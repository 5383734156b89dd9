package rt

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/memocache"
	"facile/internal/obs"
)

// Self-check mode: a sampled fraction of replayable steps is re-executed on
// the slow simulator instead of replayed, with a verifying sink that walks
// the recorded action chain alongside the live run. The step's effects
// always come from the slow path — the ground truth — so self-checking
// never perturbs results; it only detects entries that would have replayed
// wrongly.

type scMode int

const (
	scVerify scMode = iota // comparing the live step against the chain
	scRecord               // past a benign first-time value: recording a new fork
	scLive                 // diverged: entry invalidated, finish unrecorded
)

// rchecker is the self-check stepSink. A recorded value with no matching
// fork is a benign first-time result — the checker forks the verified node
// and records the rest of the step, exactly as miss recovery would. Any
// structural disagreement (block sequence, placeholder data, successor key)
// is a fault: the entry is invalidated and the rest of the step runs live,
// unrecorded.
type rchecker struct {
	m       *Machine
	ent     *memocache.Entry[node]
	cur     *node
	di      int  // compare index into cur.data
	entered bool // enterBlock seen at least once
	moved   bool // cur already advanced by a fork match
	rec     *recorder
	mode    scMode
}

func (c *rchecker) diverge(detail string) {
	m := c.m
	m.fault(faults.SelfCheckDivergence, detail)
	m.stats.SelfCheckDivergences++
	m.stats.DegradedSteps++
	m.ac.Invalidate(c.ent)
	c.mode = scLive
}

func (c *rchecker) enterBlock(bi int, blk *ir.Block) {
	switch c.mode {
	case scLive:
		return
	case scRecord:
		c.rec.enterBlock(bi, blk)
		return
	}
	if c.entered && !c.moved {
		c.cur = c.cur.Next
	}
	c.entered = true
	c.moved = false
	n := c.cur
	if n == nil {
		c.diverge("live step entered a block past the end of the recorded chain")
		return
	}
	if int(n.blockID) != bi {
		c.diverge(fmt.Sprintf("recorded block %d, live block %d", n.blockID, bi))
		return
	}
	if len(n.data) != blk.NPh {
		c.diverge(fmt.Sprintf("recorded %d placeholder values, block %d needs %d",
			len(n.data), bi, blk.NPh))
		return
	}
	c.di = 0
}

func (c *rchecker) checkPh(v int64) bool {
	n := c.cur
	if c.di >= len(n.data) || n.data[c.di] != v {
		c.diverge("recorded placeholder value disagrees with live step")
		return false
	}
	c.di++
	return true
}

func (c *rchecker) ph(di *ir.DynInst, vregs []int64) {
	switch c.mode {
	case scLive:
		return
	case scRecord:
		c.rec.ph(di, vregs)
		return
	}
	// Placeholder values are deterministic along the fork path the live run
	// selects, so any mismatch is corruption, not a first-time value.
	if di.A.Kind == ir.SrcPh && !c.checkPh(vregs[di.A.VReg]) {
		return
	}
	if di.B.Kind == ir.SrcPh && !c.checkPh(vregs[di.B.VReg]) {
		return
	}
	for _, a := range di.Args {
		if a.Kind == ir.SrcPh && !c.checkPh(vregs[a.VReg]) {
			return
		}
	}
}

func (c *rchecker) fork(v int64) {
	switch c.mode {
	case scLive:
		return
	case scRecord:
		c.rec.fork(v)
		return
	}
	n := c.cur
	next, ok := n.FindFork(uint64(v))
	if ok {
		c.cur = next
		c.moved = true
		return
	}
	// Benign first-time value: extend the verified entry from here, as miss
	// recovery would (the slow run is already producing the new path).
	c.m.stats.Misses++
	c.m.obs.Event(obs.EvMidStepMiss, 0)
	tail := n.AddFork(uint64(v))
	c.m.ac.Charge(c.ent, memocache.ForkBytes)
	c.rec = &recorder{m: c.m, ent: c.ent, tail: tail}
	c.mode = scRecord
}

func (c *rchecker) ret(key string) {
	switch c.mode {
	case scLive:
		return
	case scRecord:
		c.rec.ret(key)
		return
	}
	n := c.cur
	if n == nil {
		c.diverge("live step ended past the recorded chain")
		return
	}
	if n.NextKey != key {
		c.diverge("recorded successor key disagrees with live step")
	}
}

// selfCheckStep re-executes one replayable step on the slow simulator with
// the verifying sink attached.
func (m *Machine) selfCheckStep(e *memocache.Entry[node]) error {
	m.stats.SelfChecks++
	if !parseKey(m.curKey, m.argI, m.argQ) {
		return m.degradeLost(e, "unparseable step key at self-check")
	}
	ck := &rchecker{m: m, ent: e, cur: e.First}
	return m.runStepSlow(ck, nil)
}
