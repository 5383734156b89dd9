// Package runcfg is the shared engine-selection and run-setup layer: it
// maps an engine name plus a common option set onto any of the simulators
// in this repository and drives them through one Runner interface. The
// fsim command, the evaluation harness (internal/bench), and the job
// server (internal/serve) all construct engines through this package
// instead of re-implementing the per-engine switch.
//
// A Runner exposes cumulative budgets (Run(target) advances until overall
// progress reaches target, not for target more units), so callers can
// interleave checkpoints, cancellation checks, and observability sampling
// between chunks without engine-specific loops.
package runcfg

import (
	"fmt"

	"facile/internal/arch/fastsim"
	"facile/internal/arch/funcsim"
	"facile/internal/arch/ooo"
	"facile/internal/arch/uarch"
	"facile/internal/facsim"
	"facile/internal/faults"
	"facile/internal/isa/loader"
	"facile/internal/lang/vet"
	"facile/internal/obs"
	"facile/internal/rt"
	"facile/internal/snapshot"
)

// Engine names accepted by New. The fac-* names double as their snapshot
// kinds (facsim.KindFunctional etc).
const (
	EngineFunc       = "func"
	EngineOOO        = "ooo"
	EngineFastsim    = "fastsim"
	EngineFacFunc    = "fac-func"
	EngineFacInOrder = "fac-inorder"
	EngineFacOOO     = "fac-ooo"
)

// Engines lists the valid engine names in display order.
func Engines() []string {
	return []string{EngineFunc, EngineOOO, EngineFastsim,
		EngineFacFunc, EngineFacInOrder, EngineFacOOO}
}

// ValidEngine reports whether name names a simulator.
func ValidEngine(name string) bool {
	for _, e := range Engines() {
		if e == name {
			return true
		}
	}
	return false
}

// Config is the engine-independent option set. Fields that an engine does
// not support (Memoize on the functional simulator, say) are ignored.
type Config struct {
	Engine        string
	Memoize       bool
	CacheCapBytes uint64  // action cache cap (0 = unlimited)
	SelfCheck     float64 // fraction of replayable steps re-verified slow
	Inject        *faults.Injector

	// Uarch overrides the simulated micro-architecture for the timing
	// engines (nil = uarch.Default()). New validates the geometry and
	// rejects overrides on purely functional engines, where the core
	// configuration has no meaning.
	Uarch *uarch.Config

	Obs         *obs.Recorder
	SampleEvery uint64
}

// EffectiveUarch resolves the configuration the timing engines will use.
func (c Config) EffectiveUarch() uarch.Config {
	if c.Uarch != nil {
		return *c.Uarch
	}
	return uarch.Default()
}

// Memoizing reports whether this configuration builds an action cache.
func (c Config) Memoizing() bool {
	switch c.Engine {
	case EngineFastsim, EngineFacFunc, EngineFacInOrder, EngineFacOOO:
		return c.Memoize || c.SelfCheck > 0
	}
	return false
}

// Stats is the unified memoization-counter snapshot across engines. For
// engines without an action cache every field is zero.
type Stats struct {
	SlowSteps uint64 // steps recorded/executed by the slow simulator
	Replays   uint64 // steps replayed by the fast simulator
	Misses    uint64 // mid-step action cache misses (recoveries)
	KeyMisses uint64 // step-boundary lookups that missed

	CacheBytes     uint64 // current occupancy (gauge)
	CacheEntries   uint64 // current entries (gauge)
	TotalMemoBytes uint64 // monotonic bytes ever memoized
	CacheClears    uint64

	Faults               uint64
	Invalidations        uint64
	DegradedSteps        uint64
	WatchdogTrips        uint64
	SelfChecks           uint64
	SelfCheckDivergences uint64

	FastForwardedPc float64 // % of work replayed rather than run slow
}

// Result is the engine-independent outcome of a run. It is valid at any
// point (reflecting progress so far) and final once Done reports true.
type Result struct {
	Insts  uint64
	Cycles uint64 // 0 for purely functional engines
	Output []byte
	Exit   int64

	// Conventional-baseline extras (zero elsewhere).
	Mispredicts uint64
	L1DMisses   uint64
}

// IPC reports instructions per cycle (0 when no cycles were simulated).
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// WarmCache is an engine-agnostic handle on a detached action cache. The
// concrete type (*fastsim.WarmCache or *rt.WarmCache) only round-trips
// into a Runner of the same engine family; AdoptCache refuses mismatches.
type WarmCache interface {
	Entries() uint64
	Bytes() uint64
}

// Runner drives one simulator through the engine-independent protocol.
type Runner interface {
	// Run advances until cumulative progress reaches target (0 = run to
	// completion). Progress is counted in committed instructions, except
	// for fac-* engines where it is Facile steps (the engines' own budget
	// unit — see facsim.Instance.Run).
	Run(target uint64) error
	Done() bool
	Progress() uint64
	Result() Result
	Stats() Stats

	// Checkpointing (see internal/snapshot). The action cache is never
	// part of a snapshot; restored runs re-warm it.
	SnapshotKind() string
	Save(w *snapshot.Writer) error
	Load(r *snapshot.Reader) error

	// Warm-cache sharing. DetachCache returns nil when the engine has no
	// (non-empty) action cache; AdoptCache refuses caches from another
	// engine family and runners that already stepped.
	DetachCache() WarmCache
	AdoptCache(wc WarmCache) bool

	// LastFault reports the most recent recovered fault (nil if none, or
	// for engines without fault tracking).
	LastFault() *faults.Fault
}

// FusionFacts returns the static fusion facts for a fac-* engine's bundled
// description: predicted coverage and barrier count, from the same table
// (Program.Replay) whose fusable blocks the replay engine may fuse. Nil
// for engines without a compiled description.
// The facts come from the cached preflight vet run, so repeated calls are
// cheap.
func FusionFacts(engine string) *vet.FusionSummary {
	kind := map[string]string{
		EngineFacFunc:    facsim.KindFunctional,
		EngineFacInOrder: facsim.KindInOrder,
		EngineFacOOO:     facsim.KindOOO,
	}[engine]
	if kind == "" {
		return nil
	}
	if s, ok := facsim.Preflight(kind); ok {
		return s.Fusion
	}
	return nil
}

// New builds a Runner for cfg.Engine over prog.
func New(prog *loader.Program, cfg Config) (Runner, error) {
	uc := cfg.EffectiveUarch()
	if cfg.Uarch != nil {
		switch cfg.Engine {
		case EngineFunc, EngineFacFunc:
			return nil, fmt.Errorf("engine %q is purely functional; a uarch override has no effect there", cfg.Engine)
		}
		if err := uc.Validate(); err != nil {
			return nil, err
		}
	}
	switch cfg.Engine {
	case EngineFunc:
		st := funcsim.NewState(prog)
		st.SetObs(cfg.Obs, cfg.SampleEvery)
		return &funcRunner{st: st, prog: prog}, nil
	case EngineOOO:
		s := ooo.New(uc, prog)
		s.SetObs(cfg.Obs, cfg.SampleEvery)
		return &oooRunner{s: s}, nil
	case EngineFastsim:
		opt := fastsim.Options{
			Memoize:       cfg.Memoize || cfg.SelfCheck > 0,
			CacheCapBytes: cfg.CacheCapBytes,
			SelfCheck:     cfg.SelfCheck,
			Inject:        cfg.Inject,
			Obs:           cfg.Obs,
			SampleEvery:   cfg.SampleEvery,
		}
		return &fastsimRunner{s: fastsim.New(uc, prog, opt)}, nil
	case EngineFacFunc, EngineFacInOrder, EngineFacOOO:
		mk := map[string]func(*loader.Program, facsim.Options) (*facsim.Instance, error){
			EngineFacFunc:    facsim.NewFunctional,
			EngineFacInOrder: facsim.NewInOrder,
			EngineFacOOO:     facsim.NewOOO,
		}[cfg.Engine]
		in, err := mk(prog, facsim.Options{
			Memoize:       cfg.Memoize || cfg.SelfCheck > 0,
			CacheCapBytes: cfg.CacheCapBytes,
			SelfCheck:     cfg.SelfCheck,
			Inject:        cfg.Inject,
			Obs:           cfg.Obs,
			SampleEvery:   cfg.SampleEvery,
			Uarch:         cfg.Uarch,
		})
		if err != nil {
			return nil, err
		}
		return &facRunner{in: in}, nil
	default:
		return nil, fmt.Errorf("unknown engine %q (valid: %v)", cfg.Engine, Engines())
	}
}

// --- golden functional simulator ------------------------------------------

type funcRunner struct {
	st   *funcsim.State
	prog *loader.Program
}

func (r *funcRunner) Run(target uint64) error { return r.st.RunOn(r.prog, target) }
func (r *funcRunner) Done() bool              { return r.st.Halted }
func (r *funcRunner) Progress() uint64        { return r.st.InstCount }
func (r *funcRunner) Result() Result {
	return Result{Insts: r.st.InstCount, Output: r.st.Output, Exit: r.st.ExitStatus}
}
func (r *funcRunner) Stats() Stats                   { return Stats{} }
func (r *funcRunner) Hash() string                   { return r.st.Hash() }
func (r *funcRunner) SnapshotKind() string           { return funcsim.SnapshotKind }
func (r *funcRunner) Save(w *snapshot.Writer) error  { r.st.SaveState(w); return nil }
func (r *funcRunner) Load(rd *snapshot.Reader) error { return r.st.LoadState(rd) }
func (r *funcRunner) DetachCache() WarmCache         { return nil }
func (r *funcRunner) AdoptCache(WarmCache) bool      { return false }
func (r *funcRunner) LastFault() *faults.Fault       { return nil }

// --- conventional out-of-order baseline -----------------------------------

type oooRunner struct {
	s   *ooo.Simulator
	res uarch.Result
}

func (r *oooRunner) Run(target uint64) error { r.res = r.s.Run(target); return nil }
func (r *oooRunner) Done() bool              { return r.s.Halted() }
func (r *oooRunner) Progress() uint64        { return r.s.Committed() }
func (r *oooRunner) Result() Result {
	return Result{
		Insts: r.res.Insts, Cycles: r.res.Cycles,
		Output: r.res.Output, Exit: r.res.ExitStatus,
		Mispredicts: r.res.Mispredicts, L1DMisses: r.res.L1DMisses,
	}
}
func (r *oooRunner) Stats() Stats                   { return Stats{} }
func (r *oooRunner) Hash() string                   { return r.s.Hash() }
func (r *oooRunner) SnapshotKind() string           { return ooo.SnapshotKind }
func (r *oooRunner) Save(w *snapshot.Writer) error  { r.s.SaveState(w); return nil }
func (r *oooRunner) Load(rd *snapshot.Reader) error { return r.s.LoadState(rd) }
func (r *oooRunner) DetachCache() WarmCache         { return nil }
func (r *oooRunner) AdoptCache(WarmCache) bool      { return false }
func (r *oooRunner) LastFault() *faults.Fault       { return nil }

// --- hand-coded fast-forwarding simulator ---------------------------------

type fastsimRunner struct {
	s   *fastsim.Sim
	res uarch.Result
}

// Sim exposes the underlying simulator for engine-specific callers (the
// fsim -selfcheck report, parsim interval cloning).
func (r *fastsimRunner) Sim() *fastsim.Sim { return r.s }

func (r *fastsimRunner) Run(target uint64) error { r.res = r.s.Run(target); return nil }
func (r *fastsimRunner) Done() bool              { return r.s.Done() }
func (r *fastsimRunner) Progress() uint64        { return r.s.Committed() }
func (r *fastsimRunner) Result() Result {
	return Result{
		Insts: r.res.Insts, Cycles: r.res.Cycles,
		Output: r.res.Output, Exit: r.res.ExitStatus,
		Mispredicts: r.res.Mispredicts, L1DMisses: r.res.L1DMisses,
	}
}
func (r *fastsimRunner) Stats() Stats {
	st := r.s.Stats()
	return Stats{
		SlowSteps: st.Steps, Replays: st.Replays,
		Misses: st.Misses, KeyMisses: st.KeyMisses,
		CacheBytes: st.CacheBytes, CacheEntries: st.CacheEntries,
		TotalMemoBytes: st.TotalMemoBytes, CacheClears: st.CacheClears,
		Faults: st.Faults, Invalidations: st.Invalidations,
		DegradedSteps: st.DegradedSteps, WatchdogTrips: st.WatchdogTrips,
		SelfChecks: st.SelfChecks, SelfCheckDivergences: st.SelfCheckDivergences,
		FastForwardedPc: st.FastForwardedPc,
	}
}
func (r *fastsimRunner) SnapshotKind() string           { return fastsim.SnapshotKind }
func (r *fastsimRunner) Save(w *snapshot.Writer) error  { return r.s.SaveState(w) }
func (r *fastsimRunner) Load(rd *snapshot.Reader) error { return r.s.LoadState(rd) }
func (r *fastsimRunner) DetachCache() WarmCache {
	if wc := r.s.DetachCache(); wc != nil {
		return wc
	}
	return nil
}
func (r *fastsimRunner) AdoptCache(wc WarmCache) bool {
	fwc, ok := wc.(*fastsim.WarmCache)
	return ok && r.s.AdoptCache(fwc)
}
func (r *fastsimRunner) LastFault() *faults.Fault { return r.s.LastFault() }

// --- Facile-compiled simulators -------------------------------------------

type facRunner struct {
	in *facsim.Instance
}

// Instance exposes the underlying instance for engine-specific callers.
func (r *facRunner) Instance() *facsim.Instance { return r.in }

func (r *facRunner) Run(target uint64) error { return r.in.M.Run(target) }
func (r *facRunner) Done() bool              { return r.in.M.Done() }
func (r *facRunner) Progress() uint64 {
	st := r.in.M.Stats()
	return st.SlowSteps + st.Replays
}
func (r *facRunner) Result() Result {
	res := Result{Output: r.in.Env.Output, Exit: r.in.Env.Exit}
	if v, ok := r.in.M.Global("insts"); ok {
		res.Insts = uint64(v)
	} else {
		res.Insts = r.Progress()
	}
	if v, ok := r.in.M.Global("cycles"); ok {
		res.Cycles = uint64(v)
	}
	return res
}
func (r *facRunner) Stats() Stats {
	st := r.in.M.Stats()
	out := Stats{
		SlowSteps: st.SlowSteps, Replays: st.Replays,
		Misses: st.Misses, KeyMisses: st.KeyMisses,
		CacheBytes: st.CacheBytes, CacheEntries: st.CacheEntries,
		TotalMemoBytes: st.TotalMemoBytes, CacheClears: st.CacheClears,
		Faults: st.Faults, Invalidations: st.Invalidations,
		DegradedSteps: st.DegradedSteps, WatchdogTrips: st.WatchdogTrips,
		SelfChecks: st.SelfChecks, SelfCheckDivergences: st.SelfCheckDivergences,
	}
	if total := st.SlowSteps + st.Replays; total > 0 {
		out.FastForwardedPc = 100 * float64(st.Replays) / float64(total)
	}
	return out
}
func (r *facRunner) Hash() string                   { return r.in.Hash() }
func (r *facRunner) SnapshotKind() string           { return r.in.Kind }
func (r *facRunner) Save(w *snapshot.Writer) error  { r.in.SaveState(w); return nil }
func (r *facRunner) Load(rd *snapshot.Reader) error { return r.in.LoadState(rd) }
func (r *facRunner) DetachCache() WarmCache {
	if wc := r.in.DetachCache(); wc != nil {
		return wc
	}
	return nil
}
func (r *facRunner) AdoptCache(wc WarmCache) bool {
	rwc, ok := wc.(*rt.WarmCache)
	return ok && r.in.AdoptCache(rwc)
}
func (r *facRunner) LastFault() *faults.Fault { return r.in.M.LastFault() }
