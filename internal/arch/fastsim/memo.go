package fastsim

import (
	"facile/internal/arch/funcsim"
	"facile/internal/arch/uarch"
	"facile/internal/faults"
	"facile/internal/isa"
	"facile/internal/isa/loader"
	"facile/internal/memocache"
	"facile/internal/obs"
)

// Action kinds. Actions are the dynamic basic blocks of the hand-coded
// simulator: the only work the fast simulator performs.
const (
	aExec    uint8 = iota // functionally execute instruction (pc, in, slot)
	aICache               // I-cache access; dynamic result = latency
	aDCache               // D-cache access for slot's address; result = latency
	aPredict              // branch predictor query; result = predicted next PC
	aNextPC               // resolved next PC of slot; dynamic result test
	aUpdate               // predictor update at commit of slot
	aShift                // k instructions committed; window slots shift left
	aHalted               // dynamic halt-flag test
	aEnd                  // step boundary; links to the next cache entry
)

const flagWrite = 1
const flagMispred = 2

// action is one node in the specialized action cache. Its successors live
// in the embedded memocache.Links.
type action struct {
	kind  uint8
	flags uint8
	cls   isa.Class // aExec: precomputed classification
	slot  uint16
	dcyc  uint32 // cycles elapsed since the previous action (rt-static)
	pc    uint64
	in    isa.Inst
	memocache.Links[action]

	// Derived compiled-replay state (see compile.go): the superinstruction
	// headed by this action, valid only while fusedVer equals the owning
	// entry's CVer. Never serialized — snapshot and the warm codec
	// enumerate fields explicitly — and rebuilt lazily after warm adoption.
	fused    *fusedActs
	fusedVer uint64
}

// payload describes actions to the fault layer. Links into and out of an
// aEnd are not severed, so a broken chain always leaves some of the step's
// operations unreplayed.
var payload = memocache.Payload[action]{
	Engine: "fastsim",
	Links:  func(a *action) *memocache.Links[action] { return &a.Links },
	Same: func(a, b *action) bool {
		return a.kind == b.kind && a.flags == b.flags && a.cls == b.cls && a.slot == b.slot &&
			a.dcyc == b.dcyc && a.pc == b.pc && a.in == b.in
	},
	Severable: func(a *action) bool { return a.kind != aEnd && a.Next.kind != aEnd },
}

// Approximate byte accounting for Table 2. We charge the in-memory cost of
// each node rather than a serialized form; the paper's absolute megabyte
// counts depended on its binary format, so EXPERIMENTS.md compares shapes,
// not absolute sizes. The entry and fork costs are memocache's.
const actionBytes = 96

// Stats reports memoization statistics.
type Stats struct {
	SlowInsts uint64 // instructions committed by the slow simulator
	FastInsts uint64 // instructions replayed by the fast simulator
	Steps     uint64 // slow steps recorded
	Replays   uint64 // steps replayed by the fast simulator
	Misses    uint64 // mid-step action cache misses (recoveries)
	KeyMisses uint64 // step-boundary key lookups that missed

	CacheBytes      uint64 // current cache occupancy (accounting model)
	CacheEntries    uint64
	TotalMemoBytes  uint64 // monotonic bytes ever memoized (Table 2)
	CacheClears     uint64
	FastForwardedPc float64 // percentage of instructions fast-forwarded

	// Fault recovery and graceful degradation.
	memocache.FaultStats
	Invalidations uint64 // cache entries discarded by fault recovery
}

// Options configures a fast-forwarding simulator.
type Options struct {
	Memoize       bool
	CacheCapBytes uint64 // 0 = unlimited

	// StepCommits bounds the instructions committed per step when no
	// control transfer ends it earlier (0 = default 48). Larger steps
	// amortize key lookups over more work but multiply cache entries when
	// state recurrence is imperfect — the granularity trade-off of paper
	// §2.1.
	StepCommits int

	// SelfCheck is the fraction of replayable steps (0..1) that are
	// re-executed on the slow simulator instead of replayed, verifying the
	// recorded actions against the live run. A structural disagreement is a
	// fault: the entry is invalidated and the step finishes slow. Because
	// the checked step runs entirely on the always-correct slow path,
	// self-checking never perturbs cycle counts.
	SelfCheck float64

	// Inject, when non-nil, deterministically corrupts cache entries just
	// before replay so tests can drive every recovery path on demand.
	Inject *faults.Injector

	// MaxReplayActions bounds the actions replayed within one step before
	// the watchdog trips and degrades the step to the slow simulator
	// (0 = default 1<<20). It catches cycles in a corrupted action graph.
	MaxReplayActions uint64

	// MaxStepCycles bounds the cycles one slow step may simulate before the
	// watchdog trips (0 = default 1<<22).
	MaxStepCycles uint64

	// Obs, when non-nil, receives the memoization lifecycle (recorded /
	// replayed / miss / fault / invalidation / clear events), a sampled
	// time series of cache occupancy and slow-vs-fast split, and registry
	// metrics. Nil disables observability at the cost of one nil check per
	// event site.
	Obs *obs.Recorder

	// SampleEvery is the committed-instruction interval between time-series
	// samples (0 = obs.DefaultSampleEvery). Sampling is progress-driven, so
	// a run's series is deterministic.
	SampleEvery uint64
}

// Sim is the fast-forwarding out-of-order simulator.
type Sim struct {
	cfg  uarch.Config
	prog *loader.Program
	eng  *engine
	opt  Options
	ac   *memocache.Cache[action]
	g    memocache.Guard[action] // fault log, injection, self-check sampling

	// Dynamic global state shared between the fast and slow simulators
	// (the paper's global-variable channel): per-slot effective addresses
	// and resolved next PCs of in-flight instructions. Each in-flight
	// instruction keeps one fixed cell in a ring for its lifetime; a
	// window shift just advances base, and the step-start snapshot needed
	// for miss recovery is only a saved base/cycle pair (the cells of
	// entries alive at step start are never overwritten within a step).
	ringAddr []uint64
	ringNPC  []uint64
	ringMask uint32
	base     uint32
	inflight uint32 // fetched, not yet committed: the window's length

	// step-start snapshot for miss recovery
	startBase  uint32
	startCycle uint64
	curKey     string
	keyEnt     *memocache.Entry[action] // entry whose aEnd recorded curKey, nil if none did
	path       []uint64                 // dynamic values produced along the replayed path
	ops        uint64                   // sink-level operations performed by the current replay

	// lastNPC is the resolved next PC of the most recently fetched
	// instruction — the architectural resume point if the rt-static
	// pipeline state is ever lost (see drainReset).
	lastNPC uint64

	cycle      uint64
	engineLive bool
	done       bool

	slowInsts uint64
	fastInsts uint64
	steps     uint64
	replays   uint64
	misses    uint64
	keyMisses uint64

	// interp selects the action-at-a-time replay interpreter instead of the
	// compiled closure-array substrate (see compile.go). The two are
	// bit-identical; only this package's tests set it, as their reference.
	interp bool

	obs        *obs.Recorder
	sampler    *obs.Sampler
	hStepActs  *obs.Histogram // actions replayed per fast step
	hEntrySize *obs.Histogram // bytes charged per installed entry
	cFusedRuns *obs.Counter   // superinstructions built (lazily, per head action)
	cFusedDisp *obs.Counter   // superinstruction dispatches during replay
	cFusedActs *obs.Counter   // actions covered by fused dispatches
	cCompActs  *obs.Counter   // actions compiled into superinstructions
}

// New builds a fast-forwarding simulator for prog.
func New(cfg uarch.Config, prog *loader.Program, opt Options) *Sim {
	if opt.StepCommits <= 0 {
		opt.StepCommits = defaultStepCommits
	}
	if opt.MaxReplayActions == 0 {
		opt.MaxReplayActions = 1 << 20
	}
	if opt.MaxStepCycles == 0 {
		opt.MaxStepCycles = 1 << 22
	}
	ring := 1
	for ring < 2*(cfg.Window+opt.StepCommits+cfg.FetchWidth+4) {
		ring <<= 1
	}
	s := &Sim{
		cfg:        cfg,
		prog:       prog,
		eng:        newEngine(cfg, prog, opt.StepCommits),
		opt:        opt,
		ac:         memocache.NewCache[action](opt.CacheCapBytes, opt.Obs),
		ringAddr:   make([]uint64, ring),
		ringNPC:    make([]uint64, ring),
		ringMask:   uint32(ring - 1),
		engineLive: true,
		lastNPC:    prog.Entry,
		obs:        opt.Obs,
	}
	s.g = memocache.NewGuard(s.ac, &payload, opt.Inject, opt.SelfCheck)
	s.eng.maxStepCycles, s.eng.wdTrips = opt.MaxStepCycles, &s.g.WatchdogTrips
	reg := opt.Obs.Registry()
	s.hStepActs = reg.Histogram("fastsim.replay_actions_per_step")
	s.hEntrySize = reg.Histogram("fastsim.entry_bytes")
	s.cFusedRuns = reg.Counter("fastsim.fused_runs")
	s.cFusedDisp = reg.Counter("fastsim.fused_dispatches")
	s.cFusedActs = reg.Counter("fastsim.fused_acts")
	s.cCompActs = reg.Counter("fastsim.compiled_actions")
	s.sampler = obs.NewSampler(opt.Obs, opt.SampleEvery, s.sampleNow)
	return s
}

// sampleNow snapshots the quantities the sampled time series tracks. Called
// only from the engine's own loop, so reads need no synchronization.
func (s *Sim) sampleNow() obs.Sample {
	return obs.Sample{
		Cycles:       s.cycle,
		Insts:        s.slowInsts + s.fastInsts,
		SlowInsts:    s.slowInsts,
		FastInsts:    s.fastInsts,
		CacheBytes:   s.ac.G.Bytes,
		CacheEntries: uint64(s.ac.Len()),
	}
}

func (s *Sim) setSlot(slot int, addr, npc uint64) {
	i := (s.base + uint32(slot)) & s.ringMask
	s.ringAddr[i] = addr
	s.ringNPC[i] = npc
	s.lastNPC = npc
	s.inflight = uint32(slot) + 1 // fetch fills the window's next slot
}

func (s *Sim) slotAddrAt(slot int) uint64 {
	return s.ringAddr[(s.base+uint32(slot))&s.ringMask]
}

func (s *Sim) slotNPCAt(slot int) uint64 {
	return s.ringNPC[(s.base+uint32(slot))&s.ringMask]
}

// State exposes the canonical architectural state.
func (s *Sim) State() *funcsim.State { return s.eng.st }

// Stats returns memoization statistics for the run so far.
func (s *Sim) Stats() Stats {
	total := s.slowInsts + s.fastInsts
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(s.fastInsts) / float64(total)
	}
	return Stats{
		SlowInsts:       s.slowInsts,
		FastInsts:       s.fastInsts,
		Steps:           s.steps,
		Replays:         s.replays,
		Misses:          s.misses,
		KeyMisses:       s.keyMisses,
		CacheBytes:      s.ac.G.Bytes,
		CacheEntries:    uint64(s.ac.Len()),
		TotalMemoBytes:  s.ac.G.TotalBytes,
		CacheClears:     s.ac.G.Clears,
		FastForwardedPc: pct,
		FaultStats:      s.g.FaultStats,
		Invalidations:   s.ac.G.Invalidations,
	}
}

// dynExec performs the dynamic half of fetching one instruction: effective
// address computation, next-PC resolution, and functional execution.
func dynExec(st *funcsim.State, in isa.Inst, pc uint64, cls isa.Class) (addr, npc uint64) {
	switch cls {
	case isa.ClassLoad, isa.ClassStore:
		addr = funcsim.EffAddr(st, in)
		npc = pc + 4
	case isa.ClassBranch, isa.ClassJump:
		npc = funcsim.NextPC(st, in, pc)
	default:
		npc = pc + 4
	}
	funcsim.Apply(st, in, pc)
	return addr, npc
}

// needNextPCTest reports whether an instruction's resolved next PC is a
// dynamic value (conditional outcome or indirect target) that requires a
// dynamic-result test. Direct jumps have rt-static targets.
func needNextPCTest(in isa.Inst, cls isa.Class) bool {
	switch cls {
	case isa.ClassBranch:
		return true
	case isa.ClassJump:
		return in.Op == isa.OpJr || in.Op == isa.OpJalr
	}
	return false
}

func (s *Sim) shiftSlots(k int) {
	s.base = (s.base + uint32(k)) & s.ringMask
	s.inflight -= uint32(k)
}

// Run simulates until the program halts or maxInsts commit.
func (s *Sim) Run(maxInsts uint64) uarch.Result {
	s.obs.Begin("fastsim.run")
	defer s.obs.End("fastsim.run")
	defer s.sampler.Flush()
	for !s.done {
		s.sampler.Tick(s.slowInsts + s.fastInsts)
		if maxInsts > 0 && s.slowInsts+s.fastInsts >= maxInsts {
			break
		}
		if s.opt.Memoize {
			key := s.curKey
			if s.engineLive {
				key = s.eng.snapshotKey()
			}
			if e, check := s.g.Lookup(key); e == nil {
				if !s.engineLive {
					s.keyMisses++
					s.obs.Event(obs.EvKeyMiss, uint64(len(key)))
					s.restoreEngine()
				}
			} else if check {
				if s.engineLive || s.restoreEngine() {
					s.selfCheckStep(e)
					continue
				}
				// Corrupt step key: the drain reset already put the engine
				// back on the architectural stream; run slow.
			} else {
				if s.engineLive {
					s.beginReplay(key)
				}
				s.replayFrom(e, maxInsts)
				continue
			}
		}
		s.runStepSlow()
	}
	st := s.eng.st
	return uarch.Result{
		Cycles:        s.cycle,
		Insts:         s.slowInsts + s.fastInsts,
		ExitStatus:    st.ExitStatus,
		Output:        st.Output,
		BranchLookups: s.eng.pred.Lookups,
		Mispredicts:   s.eng.pred.Mispredict,
		L1DMisses:     s.eng.mem.L1D.Stats.Misses,
		L2Misses:      s.eng.mem.L2.Stats.Misses,
	}
}

// beginReplay records the step-start snapshot (key, dynamic slot values,
// cycle) needed to restore the slow simulator on a miss, then marks the
// engine state stale.
func (s *Sim) beginReplay(key string) {
	s.curKey = key
	s.keyEnt = nil
	s.startBase = s.base
	s.startCycle = s.cycle
	s.engineLive = false
}

// restoreEngine rebuilds the slow simulator from the step-start snapshot.
// It reports false if the recorded key no longer parses (a corrupt-key
// fault), in which case drainReset has already put the engine back on the
// architectural instruction stream with an empty pipeline, and the entry
// that recorded the key, if it is still installed, is invalidated so it is
// not replayed into the same fault again.
func (s *Sim) restoreEngine() bool {
	getSlot := func(i int) (uint64, uint64) {
		j := (s.startBase + uint32(i)) & s.ringMask
		return s.ringAddr[j], s.ringNPC[j]
	}
	if err := s.eng.restoreFromKey(s.curKey, getSlot, s.startCycle); err != nil {
		s.g.Fault(faults.CorruptKey, err.Error())
		if k := s.keyEnt; k != nil && s.ac.Get(k.Key) == k {
			s.ac.Invalidate(k)
		}
		s.keyEnt = nil
		s.drainReset()
		return false
	}
	s.base = s.startBase
	s.inflight = uint32(len(s.eng.win))
	s.cycle = s.startCycle
	s.engineLive = true
	return true
}

// drainReset recovers from an unrecoverable rt-static pipeline state: every
// fetched instruction has already executed functionally (fetch applies
// functional effects in program order), so an empty window refetching from
// the last resolved next PC preserves the architectural stream exactly —
// only the timing of the instructions that were in flight is approximated.
// Those instructions commit here, on the slow path's count.
func (s *Sim) drainReset() {
	s.slowInsts += uint64(s.inflight)
	s.inflight = 0
	e := s.eng
	e.win = e.win[:0]
	e.fetchPC = s.lastNPC
	e.stalled = false
	e.serialize = false
	e.resumeIn = 0
	e.cycle = s.cycle
	e.haltSeen = e.st.Halted
	s.engineLive = true
	if e.haltSeen {
		s.done = true
	}
}

// LastFault returns the most recently recovered fault, if any.
func (s *Sim) LastFault() *faults.Fault { return s.g.Last }

// runStepSlow runs one step of the slow/complete simulator, recording its
// actions into a fresh cache entry (when memoizing).
func (s *Sim) runStepSlow() {
	s.steps++
	if !s.opt.Memoize {
		c := s.eng.runStep(&nopSink{s: s})
		s.slowInsts += uint64(c)
		s.cycle = s.eng.cycle
		s.done = s.eng.haltSeen
		return
	}
	ent := &memocache.Entry[action]{Key: s.eng.snapshotKey()}
	rec := &recorder{s: s, ent: ent, tail: &ent.First, lastCycle: s.eng.cycle}
	s.eng.runStep(rec)
	s.finishSlowStep(rec, ent)
}

// finishSlowStep seals a recorded entry (normal or recovery) and installs
// it in the action cache. A nil rec (degraded step: nothing worth keeping)
// just seals the cycle/halt state.
func (s *Sim) finishSlowStep(rec *recorder, ent *memocache.Entry[action]) {
	s.cycle = s.eng.cycle
	if s.eng.haltSeen {
		s.done = true
	} else if rec != nil {
		end := &action{kind: aEnd}
		end.NextKey = s.eng.snapshotKey()
		rec.emit(end)
	}
	if ent != nil {
		s.ac.Put(ent)
		s.obs.Event(obs.EvStepRecorded, ent.Bytes)
		s.hEntrySize.Observe(ent.Bytes)
	}
}

// --- recorder: normal slow simulation ------------------------------------

// recorder records a slow step's actions into a cache entry. On a
// self-checked step (chk non-nil) it builds the same actions but matches
// each against the entry's recorded chain instead, until the walk forks off
// the chain and hands it the new fork to record into (see memocache.Verify).
type recorder struct {
	s         *Sim
	ent       *memocache.Entry[action] // entry the recorded bytes are charged to
	tail      **action
	lastCycle uint64
	chk       *memocache.Verify[action]
}

func (r *recorder) emit(a *action) {
	a.dcyc = uint32(r.s.eng.cycle - r.lastCycle)
	r.lastCycle = r.s.eng.cycle
	if r.chk.Checking() {
		r.chk.Match(a)
		return
	}
	*r.tail = a
	r.tail = &a.Next
	r.s.ac.Charge(r.ent, actionBytes)
}

// emitResult records a dynamic-result fork for value v on the (just
// emitted) dynres action a and directs subsequent recording into it.
func (r *recorder) emitResult(a *action, v uint64) {
	if r.chk.Checking() {
		if tail := r.chk.Fork(v); tail != nil {
			r.tail = tail
		}
		return
	}
	r.tail = a.AddFork(v)
	r.s.ac.Charge(r.ent, memocache.ForkBytes)
}

func (r *recorder) exec(slot int, pc uint64, in isa.Inst, cls isa.Class) (uint64, uint64) {
	addr, npc := dynExec(r.s.eng.st, in, pc, cls)
	r.s.setSlot(slot, addr, npc)
	r.emit(&action{kind: aExec, cls: cls, slot: uint16(slot), pc: pc, in: in})
	if needNextPCTest(in, cls) {
		a := &action{kind: aNextPC, slot: uint16(slot)}
		r.emit(a)
		r.emitResult(a, npc)
	}
	return addr, npc
}

func (r *recorder) icache(pc uint64) uint64 {
	lat := r.s.eng.mem.Inst(pc, r.s.eng.cycle)
	a := &action{kind: aICache, pc: pc}
	r.emit(a)
	r.emitResult(a, lat)
	return lat
}

func (r *recorder) dcache(slot int, addr uint64, write bool) uint64 {
	lat := r.s.eng.mem.Data(addr, r.s.eng.cycle, write)
	a := &action{kind: aDCache, slot: uint16(slot)}
	if write {
		a.flags |= flagWrite
	}
	r.emit(a)
	r.emitResult(a, lat)
	return lat
}

func (r *recorder) predict(pc uint64, in isa.Inst) uint64 {
	npc := r.s.eng.pred.Predict(in, pc)
	a := &action{kind: aPredict, pc: pc, in: in}
	r.emit(a)
	r.emitResult(a, npc)
	return npc
}

func (r *recorder) update(slot int, pc uint64, in isa.Inst, actual uint64, mispred bool) {
	r.s.eng.pred.Update(in, pc, actual, mispred)
	a := &action{kind: aUpdate, slot: uint16(slot), pc: pc, in: in}
	if mispred {
		a.flags |= flagMispred
	}
	r.emit(a)
}

func (r *recorder) halted() bool {
	h := r.s.eng.st.Halted
	a := &action{kind: aHalted}
	r.emit(a)
	r.emitResult(a, b2u(h))
	return h
}

func (r *recorder) shifted(k int) {
	r.s.shiftSlots(k)
	r.s.slowInsts += uint64(k)
	r.emit(&action{kind: aShift, slot: uint16(k)})
}

// selfCheckStep re-executes one cached step on the slow simulator,
// verifying its entry against the live run instead of replaying it.
func (s *Sim) selfCheckStep(e *memocache.Entry[action]) {
	s.steps++
	rec := &recorder{s: s, ent: e, lastCycle: s.eng.cycle, chk: s.g.Check(e, &s.misses)}
	s.eng.runStep(rec)
	s.finishSlowStep(rec, nil)
}

// --- nopSink: memoization disabled ---------------------------------------

// nopSink records nothing. With countSlow set it still accounts committed
// instructions as slow-simulated — the degraded-step recovery uses it as
// the live sink, since a step abandoned after a fault must not record.
type nopSink struct {
	s         *Sim
	countSlow bool
}

func (n *nopSink) exec(slot int, pc uint64, in isa.Inst, cls isa.Class) (uint64, uint64) {
	addr, npc := dynExec(n.s.eng.st, in, pc, cls)
	n.s.setSlot(slot, addr, npc)
	return addr, npc
}

func (n *nopSink) icache(pc uint64) uint64 {
	return n.s.eng.mem.Inst(pc, n.s.eng.cycle)
}

func (n *nopSink) dcache(slot int, addr uint64, write bool) uint64 {
	return n.s.eng.mem.Data(addr, n.s.eng.cycle, write)
}

func (n *nopSink) predict(pc uint64, in isa.Inst) uint64 {
	return n.s.eng.pred.Predict(in, pc)
}

func (n *nopSink) update(slot int, pc uint64, in isa.Inst, actual uint64, mispred bool) {
	n.s.eng.pred.Update(in, pc, actual, mispred)
}

func (n *nopSink) halted() bool { return n.s.eng.st.Halted }

func (n *nopSink) shifted(k int) {
	n.s.shiftSlots(k)
	if n.countSlow {
		n.s.slowInsts += uint64(k)
	}
}

// --- recoverer: slow simulation after an action cache miss ----------------

// recoverer replays the dynamic values the fast simulator already produced
// (the paper's recovery stack) so the slow simulator can catch up to the
// miss point without re-executing dynamic operations, then switches to a
// live sink for the rest of the step.
//
// Two cursor modes decide where the hand-over happens:
//
//   - Value cursor (classic miss recovery): the path holds one value per
//     dynamic operation performed by the partial replay, ending with the
//     miss value itself (the dynamic result the replay computed but found
//     no recorded successor for). When the last value is consumed the slow
//     simulator has caught up and the recorder takes over, appending fresh
//     actions onto the new fork. A value miss always happens at a
//     dynamic-result action, so path exhaustion marks the miss point
//     exactly.
//
//   - Operation cursor (fault degradation): a structural fault can strike
//     after operations that log no value (updates, shifts, plain execs),
//     so path exhaustion alone would hand over too early and re-execute
//     work the replay already performed. The op cursor counts the
//     sink-level operations the replay completed and hands over only after
//     the re-run has performed that many.
//
// If the cursor overruns the recorded path the entry and the re-run step
// disagree; the recoverer goes live immediately (returning zero values for
// the overrun reads) instead of panicking, and reports the overrun to the
// caller for fault accounting.
type recoverer struct {
	s    *Sim
	path []uint64
	idx  int

	useOps bool   // operation-cursor mode
	ops    uint64 // ops performed by the replay before the fault
	opIdx  uint64

	live    sink      // takes over after the cursor is exhausted
	rec     *recorder // non-nil when live records (classic miss recovery)
	active  bool      // live has taken over
	overrun bool      // cursor ran past the replayed path
}

func (rv *recoverer) goLive() {
	if rv.active {
		return
	}
	rv.active = true
	if rv.rec != nil {
		rv.rec.lastCycle = rv.s.eng.cycle
	}
}

func (rv *recoverer) take(what string) uint64 {
	if rv.idx >= len(rv.path) {
		// The recorded entry and the re-run step disagree about the step's
		// dynamic operations. Degrade instead of crashing.
		rv.overrun = true
		rv.goLive()
		return 0
	}
	v := rv.path[rv.idx]
	rv.idx++
	if !rv.useOps && rv.idx == len(rv.path) {
		// Caught up to the miss point: go live from here on.
		rv.goLive()
	}
	return v
}

// opDone advances the operation cursor after a fully replayed operation.
func (rv *recoverer) opDone() {
	if !rv.useOps || rv.active {
		return
	}
	rv.opIdx++
	if rv.opIdx >= rv.ops {
		rv.goLive()
	}
}

func (rv *recoverer) exec(slot int, pc uint64, in isa.Inst, cls isa.Class) (uint64, uint64) {
	if rv.active {
		return rv.live.exec(slot, pc, in, cls)
	}
	// The replay already applied the functional effects; reconstruct the
	// outputs. Only instructions whose exec produced a dynamic value the
	// timing model consumes (addresses, resolved next PCs) logged one.
	var addr, npc uint64
	switch {
	case cls == isa.ClassLoad || cls == isa.ClassStore:
		addr, npc = rv.take("exec"), pc+4
	case needNextPCTest(in, cls):
		addr, npc = 0, rv.take("exec")
	case cls == isa.ClassJump: // direct jump: target is rt-static
		addr, npc = 0, isa.BranchTarget(in, pc)
	default:
		addr, npc = 0, pc+4
	}
	// Keep the dynamic slot globals evolving exactly as the replay did.
	rv.s.setSlot(slot, addr, npc)
	rv.opDone()
	return addr, npc
}

func (rv *recoverer) icache(pc uint64) uint64 {
	if rv.active {
		return rv.live.icache(pc)
	}
	v := rv.take("icache")
	rv.opDone()
	return v
}

func (rv *recoverer) dcache(slot int, addr uint64, write bool) uint64 {
	if rv.active {
		return rv.live.dcache(slot, addr, write)
	}
	v := rv.take("dcache")
	rv.opDone()
	return v
}

func (rv *recoverer) predict(pc uint64, in isa.Inst) uint64 {
	if rv.active {
		return rv.live.predict(pc, in)
	}
	v := rv.take("predict")
	rv.opDone()
	return v
}

func (rv *recoverer) update(slot int, pc uint64, in isa.Inst, actual uint64, mispred bool) {
	if rv.active {
		rv.live.update(slot, pc, in, actual, mispred)
		return
	}
	// The replay already trained the predictor; nothing was logged.
	rv.opDone()
}

func (rv *recoverer) halted() bool {
	if rv.active {
		return rv.live.halted()
	}
	h := rv.take("halted") == 1
	rv.opDone()
	return h
}

func (rv *recoverer) shifted(k int) {
	if rv.active {
		rv.live.shifted(k)
		return
	}
	// The replay already counted these instructions as fast-forwarded;
	// only the slot globals need to move. Nothing was logged.
	rv.s.shiftSlots(k)
	rv.opDone()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
