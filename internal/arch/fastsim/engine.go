// Package fastsim implements the hand-coded fast-forwarding out-of-order
// simulator that plays FastSim's role in the paper: the same detailed
// R10000-like micro-architecture as package ooo, accelerated by run-time
// memoization of the simulator step function.
//
// The step function simulates the pipeline from one committed
// control-transfer instruction to the next. Its run-time static input — the
// "instruction queue" of the paper's Figure 3: the PCs, pipeline stages,
// and remaining latencies of all in-flight instructions, plus the fetch
// state — is serialized into a key for the specialized action cache. The
// dynamic residue of the step (functional instruction execution, branch
// predictor queries, cache-simulator calls, branch resolutions, syscalls)
// is recorded as a linked sequence of numbered actions. A later step with
// the same key replays the actions directly, skipping every cycle of
// pipeline bookkeeping. Actions that test dynamic values (cache latencies,
// resolved next-PCs, predictor outputs) have per-value successor forks;
// a value never seen before is an action-cache miss, which restores the
// slow simulator from the entry's key and re-runs it in recovery mode,
// consuming the already-performed dynamic operations from the replay path
// without re-executing them — the paper's recovery-stack protocol.
package fastsim

import (
	"facile/internal/arch/bpred"
	"facile/internal/arch/cache"
	"facile/internal/arch/funcsim"
	"facile/internal/arch/uarch"
	"facile/internal/isa"
	"facile/internal/isa/loader"
)

type entryState uint8

const (
	stWaiting entryState = iota
	stExecuting
	stDone
)

// decor is the static decoration of one text-segment instruction,
// precomputed once per program: decoded form, classification, operand
// lists, and base latency. Everything here is run-time static.
type decor struct {
	in      isa.Inst
	cls     isa.Class
	fu      uarch.FU
	lat     uint64
	uses    []isa.RegRef
	def     isa.RegRef
	hasDef  bool
	isSync  bool
	isCtl   bool
	isMem   bool
	isStore bool
	needNPC bool // resolved next PC is a dynamic value
	valid   bool
}

// entry is one in-flight instruction. pc/state/remain/mispred are run-time
// static and serialized into the action-cache key; d is re-derived from pc;
// addr/actualNPC are dynamic and restored from the replayer's slot arrays
// during miss recovery; depBack holds the distances (in window slots) to
// each source operand's producer — rt-static and recomputed on restore.
type entry struct {
	pc        uint64
	d         *decor
	remain    uint64 // cycles until completion, valid while executing
	addr      uint64
	actualNPC uint64
	depBack   [3]uint16
	state     entryState
	mispred   bool
}

// sink receives every dynamic operation the slow simulator performs. The
// three implementations are: the live recorder (normal slow simulation),
// the recovery cursor (slow simulation that consumes values already
// produced by a failed replay), and the no-op sink (memoization disabled).
type sink interface {
	// exec functionally executes the instruction at pc occupying window
	// slot, returning its effective address (memory ops) and its resolved
	// next PC.
	exec(slot int, pc uint64, in isa.Inst, cls isa.Class) (addr, npc uint64)
	// icache performs the I-cache access for a fetch at pc.
	icache(pc uint64) uint64
	// dcache performs the D-cache access for the memory op in slot.
	dcache(slot int, addr uint64, write bool) uint64
	// predict queries the branch predictor for the control op at pc.
	predict(pc uint64, in isa.Inst) uint64
	// update trains the predictor when the control op in slot commits.
	update(slot int, pc uint64, in isa.Inst, actual uint64, mispred bool)
	// halted reads the dynamic halt flag (set by exit syscalls / halt).
	halted() bool
	// shifted reports that k instructions committed (the window shifted).
	shifted(k int)
}

// engine is the run-time static core of the simulator: pipeline
// bookkeeping whose entire evolution is a function of the key plus the
// values returned by the sink.
type engine struct {
	cfg  uarch.Config
	prog *loader.Program
	dec  []decor // per text word, indexed by (pc-TextBase)/4

	win       []entry
	fetchPC   uint64
	stalled   bool
	serialize bool
	resumeIn  uint64 // cycles until fetch may resume (relative, rt-static)
	cycle     uint64 // absolute cycle, advanced by the engine in slow mode
	haltSeen  bool
	ilineMask uint64

	// stepCommits bounds a step for straight-line code with no committed
	// control transfers (the paper: "the simulator's author determines the
	// amount of calculation performed in a step").
	stepCommits int

	// maxStepCycles is the runaway-step watchdog: a slow step that
	// simulates more cycles than this is cut off (0 = unbounded). If the
	// cut-off step committed nothing, the pipeline can never make progress
	// and the engine halts rather than livelocking through an endless
	// sequence of watchdog-bounded steps.
	maxStepCycles uint64
	wdTrips       *uint64 // the Sim's watchdog counter

	// dynamic machine components, owned here but touched only via sinks
	// or the replayer:
	st   *funcsim.State
	pred *bpred.Predictor
	mem  *cache.Hierarchy
}

func newEngine(cfg uarch.Config, prog *loader.Program, stepCommits int) *engine {
	if stepCommits <= 0 {
		stepCommits = defaultStepCommits
	}
	e := &engine{
		cfg:         cfg,
		prog:        prog,
		stepCommits: stepCommits,
		win:         make([]entry, 0, cfg.Window),
		fetchPC:     prog.Entry,
		st:          funcsim.NewState(prog),
		pred:        bpred.New(cfg.Pred),
		mem:         cache.New(cfg.Mem),
		ilineMask:   uint64(cfg.Mem.L1I.LineBytes - 1),
	}
	e.dec = make([]decor, len(prog.Text))
	for i := range prog.Text {
		d := &e.dec[i]
		in, err := isa.Decode(prog.Text[i])
		if err != nil {
			continue
		}
		d.valid = true
		d.in = in
		d.cls = isa.Classify(in.Op)
		d.fu = uarch.FUFor(in.Op)
		d.lat = uarch.Latency(in.Op)
		d.uses = isa.Uses(in)
		d.def, d.hasDef = isa.Def(in)
		d.isSync = d.cls == isa.ClassSys
		d.isCtl = d.cls == isa.ClassBranch || d.cls == isa.ClassJump
		d.isMem = d.cls == isa.ClassLoad || d.cls == isa.ClassStore
		d.isStore = d.cls == isa.ClassStore
		d.needNPC = d.cls == isa.ClassBranch || in.Op == isa.OpJr || in.Op == isa.OpJalr
	}
	return e
}

var nopDecor = decor{in: isa.Inst{Op: isa.OpNop}, cls: isa.ClassNop, valid: true}

// decorFor returns the static decoration of the instruction at pc.
func (e *engine) decorFor(pc uint64) *decor {
	if !e.prog.InText(pc) || pc%4 != 0 {
		return &nopDecor
	}
	d := &e.dec[(pc-loader.TextBase)/4]
	if !d.valid {
		return &nopDecor
	}
	return d
}

// computeDeps fills win[i].depBack by scanning for each source operand's
// youngest older producer — done once per instruction at fetch (and on
// restore), instead of every cycle.
func (e *engine) computeDeps(i int) {
	ent := &e.win[i]
	ent.depBack = [3]uint16{}
	for k, u := range ent.d.uses {
		for j := i - 1; j >= 0; j-- {
			p := &e.win[j]
			if p.d.hasDef && p.d.def == u {
				ent.depBack[k] = uint16(i - j)
				break
			}
		}
	}
}

// defaultStepCommits is the default step bound for straight-line code
// with no committed control transfers (long basic blocks still form
// steps).
const defaultStepCommits = 48

// runStep simulates from the current pipeline state until the end of a
// cycle in which a control-transfer or serializing instruction committed
// (or maxStepCommits instructions committed), reporting every dynamic
// operation to s. It returns the number of instructions committed.
func (e *engine) runStep(s sink) int {
	committed := 0
	var cycles uint64
	for !e.haltSeen {
		boundary := e.stepCycle(s, &committed)
		if e.haltSeen {
			break
		}
		if boundary || committed >= e.stepCommits {
			break
		}
		cycles++
		if e.maxStepCycles > 0 && cycles >= e.maxStepCycles {
			*e.wdTrips++
			if committed == 0 {
				e.haltSeen = true
			}
			break
		}
	}
	return committed
}

// stepCycle advances one cycle; reports whether a step boundary (committed
// control transfer / serializer) occurred during it.
func (e *engine) stepCycle(s sink, committed *int) bool {
	boundary := e.commit(s, committed)
	if e.haltSeen {
		return true
	}
	if e.stalled && len(e.win) == 0 {
		// runaway fetch with a drained pipeline: nothing can ever commit
		e.haltSeen = true
		return true
	}
	e.writeback()
	e.issue(s)
	e.fetch(s)
	e.cycle++
	if e.resumeIn > 0 {
		e.resumeIn--
	}
	return boundary
}

func (e *engine) commit(s sink, committed *int) bool {
	boundary := false
	n, shift := 0, 0
	for n < e.cfg.CommitWidth && shift < len(e.win) && e.win[shift].state == stDone {
		ent := &e.win[shift]
		if ent.d.isCtl {
			s.update(shift, ent.pc, ent.d.in, ent.actualNPC, ent.mispred)
			boundary = true
		}
		halt := false
		if ent.d.isSync {
			e.serialize = false
			boundary = true
			if ent.d.in.Op == isa.OpHalt || s.halted() {
				halt = true
			}
		}
		shift++
		n++
		*committed++
		if halt {
			s.shifted(shift)
			copy(e.win, e.win[shift:])
			e.win = e.win[:len(e.win)-shift]
			e.haltSeen = true
			return true
		}
	}
	if shift > 0 {
		s.shifted(shift)
		copy(e.win, e.win[shift:])
		e.win = e.win[:len(e.win)-shift]
	}
	return boundary
}

func (e *engine) writeback() {
	for i := range e.win {
		ent := &e.win[i]
		if ent.state != stExecuting {
			continue
		}
		if ent.remain > 0 {
			ent.remain--
		}
		if ent.remain == 0 {
			ent.state = stDone
			if ent.mispred {
				if e.cfg.MispredictPenalty > e.resumeIn {
					e.resumeIn = e.cfg.MispredictPenalty
				}
				e.stalled = false
			}
		}
	}
}

func (e *engine) ready(i int) bool {
	ent := &e.win[i]
	for _, db := range ent.depBack {
		if db == 0 {
			continue
		}
		j := i - int(db)
		if j >= 0 && e.win[j].state != stDone {
			return false
		}
	}
	return true
}

func (e *engine) issue(s sink) {
	var fuUsed [uarch.NumFU]int
	fuAvail := [uarch.NumFU]int{
		uarch.FUIntALU: e.cfg.IntALUs,
		uarch.FUIntMul: e.cfg.IntMuls,
		uarch.FUFPU:    e.cfg.FPUs,
		uarch.FULSU:    e.cfg.LSUs,
	}
	pendingStore := false // an older store has not finished executing
	pendingMem := false   // an older memory op has not issued
	for i := range e.win {
		ent := &e.win[i]
		d := ent.d
		if ent.state != stWaiting {
			if d.isStore && ent.state != stDone {
				pendingStore = true
			}
			continue
		}
		issueIt := true
		if d.fu != uarch.FUNone && fuUsed[d.fu] >= fuAvail[d.fu] {
			issueIt = false
		}
		if issueIt && !e.ready(i) {
			issueIt = false
		}
		if issueIt && d.isMem && (pendingStore || (d.isStore && pendingMem)) {
			issueIt = false
		}
		if issueIt && d.isSync && i != 0 {
			issueIt = false
		}
		if issueIt {
			lat := d.lat
			if d.isMem {
				lat += s.dcache(i, ent.addr, d.isStore)
			}
			ent.state = stExecuting
			ent.remain = lat
			if d.fu != uarch.FUNone {
				fuUsed[d.fu]++
			}
			if d.isStore {
				pendingStore = true // issued but not yet done
			}
		} else {
			if d.isStore {
				pendingStore = true
			}
			if d.isMem {
				pendingMem = true
			}
		}
	}
}

func (e *engine) fetch(s sink) {
	if e.stalled || e.serialize || e.resumeIn > 0 {
		return
	}
	for n := 0; n < e.cfg.FetchWidth; n++ {
		if len(e.win) >= e.cfg.Window {
			return
		}
		pc := e.fetchPC
		if !e.prog.InText(pc) {
			e.stalled = true
			return
		}
		// One I-cache access per fetch group and per line crossing.
		if n == 0 || pc&e.ilineMask == 0 {
			ilat := s.icache(pc)
			if ilat > e.cfg.Mem.L1I.HitLat {
				e.resumeIn = ilat
				return
			}
		}
		d := e.decorFor(pc)
		slot := len(e.win)
		addr, npc := s.exec(slot, pc, d.in, d.cls)

		e.win = append(e.win, entry{pc: pc, d: d, addr: addr, actualNPC: npc})
		ent := &e.win[slot]
		e.computeDeps(slot)

		if d.isCtl {
			predNPC := s.predict(pc, d.in)
			ent.mispred = predNPC != npc
		}
		e.fetchPC = npc

		if d.isSync {
			e.serialize = true
			return
		}
		if ent.mispred {
			e.stalled = true
			return
		}
		if d.isCtl && npc != pc+4 {
			return
		}
	}
}
