package rt

import (
	"fmt"

	"facile/internal/faults"
	"facile/internal/lang/ir"
	"facile/internal/obs"
)

// Extern is a host (Go) function callable from Facile. External calls are
// dynamic: the compiler never memoizes through them, so externs may hold
// arbitrary mutable state (cache simulators, branch predictors, target
// memory, output devices). args is valid only for the duration of the
// call: the machine reuses one argument buffer for every call, so an
// extern must copy any values it keeps.
type Extern func(args []int64) int64

// TextSource provides the target program's text segment: the token stream
// Facile's ?fetch/?exec read. Target instructions are run-time static
// (paper §4.1, footnote: they do not change after loading).
type TextSource interface {
	FetchWord(addr uint64) uint32
}

// Options configures a Machine.
type Options struct {
	Memoize        bool
	CacheCapBytes  uint64 // 0 = unlimited
	StepInstBudget uint64 // IR instructions per step before aborting; 0 = default

	// SelfCheck is the fraction of replayable steps (0..1) that are
	// re-executed on the slow simulator instead of replayed, verifying the
	// recorded action nodes against the live run. A structural disagreement
	// is a fault: the entry is invalidated and the step finishes live,
	// unrecorded. The checked step runs entirely on the always-correct slow
	// path, so self-checking never perturbs program results.
	SelfCheck     float64
	SelfCheckSeed uint64 // sampling PRNG seed (0 = fixed default)

	// Inject, when non-nil, deterministically corrupts cache entries just
	// before replay so tests can drive every recovery path on demand.
	Inject *faults.Injector

	// MaxReplayNodes bounds the action nodes replayed within one step
	// before the watchdog trips and degrades the step to the slow
	// simulator (0 = default 1<<20). It catches cycles in a corrupted
	// action graph.
	MaxReplayNodes uint64

	// Obs, when non-nil, receives the memoization lifecycle and a sampled
	// time series of cache occupancy and slow-vs-fast operation split.
	Obs *obs.Recorder

	// SampleEvery is the executed-operation interval between time-series
	// samples (0 = obs.DefaultSampleEvery).
	SampleEvery uint64
}

const defaultStepBudget = 200_000_000

// Stats reports run-time statistics.
type Stats struct {
	SlowSteps uint64 // steps executed by the slow/complete simulator
	Replays   uint64 // steps replayed by the fast/residual simulator
	Misses    uint64 // mid-step action cache misses (recoveries)
	KeyMisses uint64 // step-boundary lookups that missed

	SlowInsts uint64 // IR instructions executed by the slow simulator
	FastOps   uint64 // dynamic instructions executed by the fast simulator

	CacheBytes     uint64
	CacheEntries   uint64
	TotalMemoBytes uint64
	CacheClears    uint64

	Faults               uint64 // typed faults detected during replay/recovery
	Invalidations        uint64 // cache entries discarded after a fault
	DegradedSteps        uint64 // steps re-run on the slow simulator after a fault
	WatchdogTrips        uint64 // replay-node or step-budget watchdog firings
	SelfChecks           uint64 // replayable steps re-executed for verification
	SelfCheckDivergences uint64 // self-checks that disagreed with the cache
}

// Machine executes a compiled Facile program with optional
// fast-forwarding.
type Machine struct {
	p    *ir.Program
	text TextSource
	opt  Options

	globals []int64
	arrays  [][]int64
	queuesG []*Queue
	argQ    []*Queue // main queue parameters (run-time static state)
	argI    []int64  // main integer arguments for the current step
	argBuf  []int64  // next-step integer arguments (set_args targets)
	vregs   []int64
	externs []Extern
	scratch []int64 // CallExt/QPush argument buffer, sized to the widest list

	ac      *acache
	started bool
	curKey  string // key of the next step to run, kept only when memoizing (see nextKey)
	stepKey string // key of the entry currently being replayed
	path    []int64
	nodes   uint64 // action nodes completed by the current replayed step
	stop    func(*Machine) bool
	done    bool

	blkExt    [][]int32 // extern indices each block's dynamic segment calls
	scState   uint64    // self-check sampling PRNG state
	lastFault *faults.Fault

	// slow is the decoded program both simulators run (see slow.go).
	slow slowProgram

	obs     *obs.Recorder
	sampler *obs.Sampler

	// Registry metrics: per-step replay-length distribution (parity with
	// fastsim's replay_actions_per_step) and fused-run telemetry.
	hStepNodes  *obs.Histogram
	cFusedRuns  *obs.Counter // fused runs built (lazily, per head node)
	cFusedDisp  *obs.Counter // fused-run dispatches during replay
	cFusedNodes *obs.Counter // action nodes covered by fused dispatches

	stats Stats
}

// New builds a machine for the compiled program p over the given target
// text.
func New(p *ir.Program, text TextSource, opt Options) *Machine {
	if opt.StepInstBudget == 0 {
		opt.StepInstBudget = defaultStepBudget
	}
	if opt.MaxReplayNodes == 0 {
		opt.MaxReplayNodes = 1 << 20
	}
	m := &Machine{
		p:       p,
		text:    text,
		opt:     opt,
		globals: make([]int64, len(p.Globals)),
		arrays:  make([][]int64, len(p.Arrays)),
		queuesG: make([]*Queue, len(p.QueuesG)),
		externs: make([]Extern, len(p.Externs)),
		ac:      newACache(opt.CacheCapBytes, opt.Obs),
		obs:     opt.Obs,
		slow:    decodeProgram(p),
	}
	m.vregs = make([]int64, int(m.slow.constBase)+len(m.slow.consts))
	copy(m.vregs[m.slow.constBase:], m.slow.consts)
	reg := opt.Obs.Registry()
	if pl := p.Replay; pl != nil {
		// Predicted-vs-achieved fusion coverage: what the static plan calls
		// fusable against the blocks a fused run may include, the pure-flow
		// blocks with a dynamic segment.
		var fusBlocks, fusOps uint64
		for _, blk := range p.Blocks {
			if len(blk.Dyn) > 0 && blk.DynTerm == ir.DTNone {
				fusBlocks++
				fusOps += uint64(len(blk.Dyn))
			}
		}
		reg.Counter("rt.fusion_predicted_blocks").Add(uint64(pl.FusableBlocks))
		reg.Counter("rt.fusion_compiled_blocks").Add(fusBlocks)
		reg.Counter("rt.fusion_predicted_ops").Add(uint64(pl.FusableOps))
		reg.Counter("rt.fusion_compiled_ops").Add(fusOps)
	}
	m.hStepNodes = reg.Histogram("rt.replay_nodes_per_step")
	m.cFusedRuns = reg.Counter("rt.fused_runs")
	m.cFusedDisp = reg.Counter("rt.fused_dispatches")
	m.cFusedNodes = reg.Counter("rt.fused_nodes")
	m.sampler = obs.NewSampler(opt.Obs, opt.SampleEvery, func() obs.Sample {
		return obs.Sample{
			Insts:        m.stats.SlowInsts + m.stats.FastOps,
			SlowInsts:    m.stats.SlowInsts,
			FastInsts:    m.stats.FastOps,
			CacheBytes:   m.ac.g.Bytes,
			CacheEntries: uint64(len(m.ac.m)),
		}
	})
	for i, g := range p.Globals {
		m.globals[i] = g.Init
	}
	for i, a := range p.Arrays {
		m.arrays[i] = make([]int64, a.Len)
		for j := range m.arrays[i] {
			m.arrays[i][j] = a.Init
		}
	}
	for i, q := range p.QueuesG {
		m.queuesG[i] = NewQueue(q.Cap, q.Width)
	}
	nInt := 0
	for _, prm := range p.Params {
		if prm.IsQueue {
			m.argQ = append(m.argQ, NewQueue(prm.Queue.Cap, prm.Queue.Width))
		} else {
			nInt++
		}
	}
	m.argI = make([]int64, nInt)
	m.argBuf = make([]int64, nInt)
	// Precompute, per block, the externs its dynamic segment calls, so the
	// replayer can vet a recorded block reference before executing it; and
	// size the argument buffer to the widest CallExt/QPush list, slow or
	// fast, so no call allocates.
	m.blkExt = make([][]int32, len(p.Blocks))
	width := 0
	for bi, blk := range p.Blocks {
		for _, di := range blk.Dyn {
			if di.Op == ir.CallExt {
				m.blkExt[bi] = append(m.blkExt[bi], int32(di.Imm))
			}
			width = max(width, len(di.Args))
		}
		for i := range blk.Insts {
			width = max(width, len(blk.Insts[i].Args))
		}
	}
	m.scratch = make([]int64, width)
	m.scState = opt.SelfCheckSeed
	if m.scState == 0 {
		m.scState = 0xD1B54A32D192ED03
	}
	return m
}

// RegisterExtern installs the host implementation of a declared extern.
func (m *Machine) RegisterExtern(name string, fn Extern) error {
	for i, n := range m.p.Externs {
		if n == name {
			m.externs[i] = fn
			return nil
		}
	}
	return fmt.Errorf("rt: program declares no extern %q", name)
}

// SetStop installs the termination predicate, evaluated at every step
// boundary (identically for memoized and non-memoized runs).
func (m *Machine) SetStop(fn func(*Machine) bool) { m.stop = fn }

// SetIntArgs seeds main's integer arguments for the first step.
func (m *Machine) SetIntArgs(args ...int64) error {
	if len(args) != len(m.argI) {
		return fmt.Errorf("rt: main takes %d integer arguments, got %d", len(m.argI), len(args))
	}
	copy(m.argI, args)
	return nil
}

// ArgQueue returns main's i-th queue parameter for seeding initial state.
func (m *Machine) ArgQueue(i int) *Queue { return m.argQ[i] }

// Global returns the current value of a global by name (for drivers and
// tests; Facile programs expose results through globals and externs).
func (m *Machine) Global(name string) (int64, bool) {
	if i, ok := m.GlobalIndex(name); ok {
		return m.globals[i], true
	}
	return 0, false
}

// GlobalIndex resolves a global's name to the index GlobalAt reads, so a
// per-step reader (a stop predicate) can skip the by-name scan. The index
// is a property of the compiled program, valid on every machine built
// from it.
func (m *Machine) GlobalIndex(name string) (int, bool) {
	for i, g := range m.p.Globals {
		if g.Name == name {
			return i, true
		}
	}
	return 0, false
}

// GlobalAt returns the current value of the global at index i (see
// GlobalIndex).
func (m *Machine) GlobalAt(i int) int64 { return m.globals[i] }

// SetGlobal writes a global by name.
func (m *Machine) SetGlobal(name string, v int64) bool {
	i, ok := m.GlobalIndex(name)
	if ok {
		m.globals[i] = v
	}
	return ok
}

// Array returns a global array by name.
func (m *Machine) Array(name string) ([]int64, bool) {
	for i, a := range m.p.Arrays {
		if a.Name == name {
			return m.arrays[i], true
		}
	}
	return nil, false
}

// Stats returns run statistics.
func (m *Machine) Stats() Stats {
	st := m.stats
	st.CacheBytes = m.ac.g.Bytes
	st.CacheEntries = uint64(len(m.ac.m))
	st.TotalMemoBytes = m.ac.g.TotalBytes
	st.CacheClears = m.ac.g.Clears
	st.Invalidations = m.ac.g.Invalidations
	return st
}

// LastFault returns the most recent fault detected by replay, recovery, or
// self-checking (nil if none).
func (m *Machine) LastFault() *faults.Fault { return m.lastFault }

func (m *Machine) fault(k faults.Kind, detail string) {
	m.stats.Faults++
	m.lastFault = &faults.Fault{Kind: k, Engine: "rt", Detail: detail}
	m.obs.EventDetail(obs.EvFault, 0, k.String())
}

// stepHook reports whether per-step policies (fault injection, self-check
// sampling) are active, in which case the replayer hands every chained step
// back to Run instead of following cache links internally.
func (m *Machine) stepHook() bool {
	return m.opt.Inject != nil || m.opt.SelfCheck > 0
}

// selfCheckDue samples the self-check rate deterministically.
func (m *Machine) selfCheckDue() bool {
	f := m.opt.SelfCheck
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	x := m.scState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.scState = x
	return float64(x>>11)/(1<<53) < f
}

// Done reports whether the stop predicate has fired.
func (m *Machine) Done() bool { return m.done }

// Run executes steps until the stop predicate fires or maxSteps steps
// complete (0 = unlimited).
func (m *Machine) Run(maxSteps uint64) error {
	if !m.started {
		if m.opt.Memoize {
			m.curKey = buildKey(m.argI, m.argQ)
		}
		m.started = true
	}
	m.obs.Begin("rt.run")
	defer m.obs.End("rt.run")
	defer m.sampler.Flush()
	steps := func() uint64 { return m.stats.SlowSteps + m.stats.Replays }
	for !m.done {
		m.sampler.Tick(m.stats.SlowInsts + m.stats.FastOps)
		if maxSteps > 0 && steps() >= maxSteps {
			return nil
		}
		var sink stepSink
		var ent *centry
		if m.opt.Memoize {
			e := m.ac.get(m.curKey)
			if e != nil {
				if inj := m.opt.Inject.Arm(); inj != faults.InjNone {
					m.injectFault(e, inj)
					e = m.ac.get(m.curKey)
				}
			}
			if e != nil {
				if m.selfCheckDue() {
					if err := m.selfCheckStep(e); err != nil {
						return err
					}
				} else if err := m.replayFrom(e, maxSteps); err != nil {
					return err
				}
				continue
			}
			m.stats.KeyMisses++
			m.obs.Event(obs.EvKeyMiss, uint64(len(m.curKey)))
			// Replay advances only the step key; restore main's arguments
			// from it. (Without memoization every step runs slow and leaves
			// them current.)
			if !parseKey(m.curKey, m.argI, m.argQ) {
				// Should be unreachable: successor keys are vetted before
				// adoption. Rebuild a parseable key from the current
				// arguments so the run continues instead of crashing.
				m.fault(faults.CorruptKey, "unparseable step key at slow-path entry")
				m.curKey = buildKey(m.argI, m.argQ)
			}
			ent = &centry{key: m.curKey}
			sink = &recorder{m: m, ent: ent, tail: &ent.first}
		}
		if err := m.runStepSlow(sink, nil); err != nil {
			return err
		}
		if ent != nil {
			m.ac.put(ent)
			m.obs.Event(obs.EvStepRecorded, ent.bytes)
		}
	}
	return nil
}

// stepSink observes one slow step's dynamic structure: block entries,
// memoized placeholder values, dynamic results, and the end-of-step
// successor key. The recorder implements it to grow the action cache; the
// self-check verifier implements it to compare a live step against a
// recorded chain.
type stepSink interface {
	enterBlock(bi int, blk *ir.Block)
	ph(di *ir.DynInst, vregs []int64)
	fork(v int64)
	ret(key string)
}

// recorder appends new actions to the specialized action cache during slow
// simulation.
type recorder struct {
	m    *Machine
	ent  *centry // entry the recorded bytes are charged to
	tail **node
	n    *node // node for the block currently executing
}

func (r *recorder) enterBlock(bi int, blk *ir.Block) {
	n := &node{blockID: int32(bi)}
	if blk.NPh > 0 {
		n.data = make([]int64, 0, blk.NPh)
	}
	*r.tail = n
	r.tail = &n.next
	r.m.ac.charge(r.ent, nodeBytes+uint64(cap(n.data))*valBytes)
	r.n = n
}

func (r *recorder) ph(di *ir.DynInst, vregs []int64) {
	r.n.data = appendPh(r.n.data, di, vregs)
}

// fork records a dynamic result v on the current node and redirects
// recording into the new successor chain.
func (r *recorder) fork(v int64) {
	n := r.n
	n.forks = append(n.forks, nfork{val: v})
	r.tail = &n.forks[len(n.forks)-1].next
	r.m.ac.charge(r.ent, forkBytes)
}

func (r *recorder) ret(key string) {
	if r.n != nil {
		r.n.nextKey = key
		r.m.ac.charge(r.ent, uint64(len(key)))
	}
}

// rcursor aligns a slow re-run with the partial replay it replaces. In
// value mode (useNodes false — the classic miss recovery) the cursor
// consumes the replayed dynamic results in path and goes live when the last
// one — the miss value itself — is applied. In node mode (structural-fault
// degradation) the miss point is not a dynamic result, so the cursor counts
// completed dynamic blocks instead and goes live after `nodes` of them,
// still consuming path values at the dynamic-result tests in between. A
// rekey cursor never goes live: it skims the whole step only to rebuild the
// successor key a replay completed with but recorded corruptly.
type rcursor struct {
	path     []int64
	pi       int
	useNodes bool
	nodes    uint64
	visited  uint64
	rekey    bool

	live       bool
	overrun    bool // consumed past the end of the replayed path
	incomplete bool // step ended before the cursor went live
}

// take consumes the next replayed dynamic result; fallback is the live
// value to use if the path is exhausted early (a fault, flagged overrun).
func (c *rcursor) take(fallback int64) int64 {
	if c.pi >= len(c.path) {
		c.overrun = true
		c.live = !c.rekey
		return fallback
	}
	v := c.path[c.pi]
	c.pi++
	if !c.useNodes && c.pi == len(c.path) {
		c.live = true
	}
	return v
}

// blockDone marks a dynamic block complete; in node mode the cursor goes
// live once it has skipped as many blocks as the replay completed.
func (c *rcursor) blockDone() {
	if c.live || !c.useNodes {
		return
	}
	c.visited++
	if !c.rekey && c.visited >= c.nodes {
		c.live = true
	}
}

func b2i(v int64) int64 {
	if v != 0 {
		return 1
	}
	return 0
}

// appendPh appends the current values of di's run-time static placeholder
// operands: A, B, then Args, the order in which decodeSegments numbers the
// placeholder window.
func appendPh(data []int64, di *ir.DynInst, vregs []int64) []int64 {
	if di.A.Kind == ir.SrcPh {
		data = append(data, vregs[di.A.VReg])
	}
	if di.B.Kind == ir.SrcPh {
		data = append(data, vregs[di.B.VReg])
	}
	for _, a := range di.Args {
		if a.Kind == ir.SrcPh {
			data = append(data, vregs[a.VReg])
		}
	}
	return data
}

func (m *Machine) queue(qid int32) *Queue {
	if qid >= 0 {
		return m.queuesG[qid]
	}
	return m.argQ[^qid]
}

// nextKey returns the key of the next step to run. A memoizing machine
// keeps it in curKey: replay advances the key, not main's arguments. A
// non-memoizing machine runs every step slow, which keeps the arguments
// current, so it builds the key only when asked.
func (m *Machine) nextKey() string {
	if m.opt.Memoize || !m.started {
		return m.curKey
	}
	return buildKey(m.argI, m.argQ)
}

// DebugState exposes internals for tests (current key bytes and args).
func (m *Machine) DebugState() (key string, argI []int64) {
	return m.nextKey(), append([]int64(nil), m.argI...)
}
