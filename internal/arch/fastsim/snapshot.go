package fastsim

import (
	"fmt"

	"facile/internal/arch/funcsim"
	"facile/internal/arch/uarch"
	"facile/internal/isa/loader"
	"facile/internal/snapshot"
)

// SnapshotKind identifies fast-forwarding-simulator snapshots.
const SnapshotKind = "fastsim"

// NewAt builds a simulator whose architectural starting point is st rather
// than the program entry: the pipeline starts empty and fetch begins at
// st.PC. Parallel interval simulation uses this to hand a funcsim warm-up
// state to a detailed cloned machine. The caller transfers ownership of st.
func NewAt(cfg uarch.Config, prog *loader.Program, opt Options, st *funcsim.State) *Sim {
	s := New(cfg, prog, opt)
	s.eng.st = st
	s.eng.fetchPC = st.PC
	s.lastNPC = st.PC
	if st.Halted {
		s.eng.haltSeen = true
		s.done = true
	}
	return s
}

// Committed reports total instructions committed (Run budgets are
// cumulative against this counter, so checkpointed runs chunk cleanly).
func (s *Sim) Committed() uint64 { return s.slowInsts + s.fastInsts }

// Done reports whether the simulated program has halted.
func (s *Sim) Done() bool { return s.done }

// SyncEngine materializes the slow simulator's pipeline state at the
// current step boundary. After a replayed step the engine is stale (only
// the action-cache key describes the pipeline); saving a snapshot or
// cloning requires the live form. It reports false if the recorded key was
// corrupt, in which case the drain-reset recovery already put the engine
// back on the architectural stream (still a valid state to snapshot).
func (s *Sim) SyncEngine() bool {
	if s.engineLive {
		return true
	}
	return s.restoreEngine()
}

// SaveState serializes the complete simulator state at a step boundary.
//
// STATE section (hashed): architectural state, branch predictor, cache
// hierarchy, rt-static pipeline state (fetch state plus the in-flight
// window with each entry's dynamic address/next-PC), cycle, total committed
// instructions, and the self-check PRNG.
//
// Accounting section (carried, unhashed): the memoization and fault
// counters. The action cache itself is deliberately excluded — it is an
// acceleration structure, re-warmed after restore — which is why a restored
// run's slow/replayed split differs from an uninterrupted one while its
// timing and architectural results are bit-identical.
func (s *Sim) SaveState(w *snapshot.Writer) error {
	s.SyncEngine()
	e := s.eng
	s.cycle = e.cycle
	e.st.SaveState(w)
	e.pred.SaveState(w)
	e.mem.SaveState(w)
	w.U64(e.fetchPC)
	w.Bool(e.stalled)
	w.Bool(e.serialize)
	w.U64(e.resumeIn)
	w.Bool(e.haltSeen)
	w.U64(s.cycle)
	w.U64(uint64(len(e.win)))
	for i := range e.win {
		ent := &e.win[i]
		w.U64(ent.pc)
		w.U8(uint8(ent.state))
		w.U64(ent.remain)
		w.U64(ent.addr)
		w.U64(ent.actualNPC)
		w.Bool(ent.mispred)
	}
	w.U64(s.lastNPC)
	w.Bool(s.done)
	w.U64(s.g.SampleState)
	w.U64(s.slowInsts + s.fastInsts)

	w.BeginAux()
	w.U64(s.slowInsts)
	w.U64(s.fastInsts)
	w.U64(s.steps)
	w.U64(s.replays)
	w.U64(s.misses)
	w.U64(s.keyMisses)
	s.g.SaveCounts(w)
	w.U64(s.ac.G.TotalBytes)
	w.U64(s.ac.G.Clears)
	w.U64(s.ac.G.Invalidations)
	return nil
}

// LoadState restores a simulator built over the same program and
// configuration. The action cache starts empty and re-warms.
func (s *Sim) LoadState(r *snapshot.Reader) error {
	e := s.eng
	if err := e.st.LoadState(r); err != nil {
		return err
	}
	if err := e.pred.LoadState(r); err != nil {
		return err
	}
	if err := e.mem.LoadState(r); err != nil {
		return err
	}
	e.fetchPC = r.U64()
	e.stalled = r.Bool()
	e.serialize = r.Bool()
	e.resumeIn = r.U64()
	e.haltSeen = r.Bool()
	s.cycle = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n > uint64(e.cfg.Window) {
		return fmt.Errorf("fastsim: snapshot window %d exceeds configured %d", n, e.cfg.Window)
	}
	e.win = e.win[:0]
	s.base, s.inflight = 0, 0
	for i := uint64(0); i < n; i++ {
		var ent entry
		ent.pc = r.U64()
		st := r.U8()
		ent.remain = r.U64()
		ent.addr = r.U64()
		ent.actualNPC = r.U64()
		ent.mispred = r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if st > uint8(stDone) {
			return fmt.Errorf("fastsim: snapshot entry %d has invalid state %d", i, st)
		}
		ent.state = entryState(st)
		ent.d = e.decorFor(ent.pc)
		e.win = append(e.win, ent)
		// Re-seed the dynamic slot globals the replayer reads.
		s.setSlot(int(i), ent.addr, ent.actualNPC)
	}
	for i := range e.win {
		e.computeDeps(i)
	}
	s.lastNPC = r.U64()
	s.done = r.Bool()
	s.g.SampleState = r.U64()
	total := r.U64()

	s.slowInsts = r.U64()
	s.fastInsts = r.U64()
	s.steps = r.U64()
	s.replays = r.U64()
	s.misses = r.U64()
	s.keyMisses = r.U64()
	s.g.LoadCounts(r)
	s.ac.G.TotalBytes = r.U64()
	s.ac.G.Clears = r.U64()
	s.ac.G.Invalidations = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if s.slowInsts+s.fastInsts != total {
		return fmt.Errorf("fastsim: snapshot accounting (%d+%d) disagrees with committed total %d",
			s.slowInsts, s.fastInsts, total)
	}
	e.cycle = s.cycle
	s.engineLive = true
	s.startBase = s.base
	s.startCycle = s.cycle
	s.curKey = ""
	s.keyEnt = nil
	s.path = s.path[:0]
	s.ops = 0
	if e.haltSeen {
		s.done = true
	}
	return nil
}

// Clone returns an independent deep copy of the simulator via an in-memory
// snapshot round-trip, which structurally guarantees the clone shares no
// mutable state with s: memory pages, register files, predictor tables,
// cache sets, window entries, and slot rings are all rebuilt. The clone's
// action cache starts empty (copy-on-warm rather than copy-on-write: the
// recorded action graphs are the one structure cheap to regenerate and
// expensive to deep-copy).
func (s *Sim) Clone() (*Sim, error) {
	w := snapshot.NewWriter()
	if err := s.SaveState(w); err != nil {
		return nil, err
	}
	c := New(s.cfg, s.prog, s.opt)
	if err := c.LoadState(snapshot.NewReader(w.Payload())); err != nil {
		return nil, err
	}
	return c, nil
}
