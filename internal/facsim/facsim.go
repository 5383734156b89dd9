// Package facsim bridges the Facile-language simulator descriptions in
// facile/*.fac to the SVR32 substrate: it compiles the descriptions,
// registers the host externs (target memory, system calls, floating point,
// branch predictor, cache hierarchy — the paper's "1,000 lines of C"), and
// exposes ready-to-run machines for the functional, in-order, and
// out-of-order simulators.
package facsim

import (
	"fmt"
	"math"
	"sync"

	"facile/facile"
	"facile/internal/arch/bpred"
	"facile/internal/arch/cache"
	"facile/internal/arch/uarch"
	"facile/internal/core"
	"facile/internal/faults"
	"facile/internal/isa"
	"facile/internal/isa/loader"
	"facile/internal/mem"
	"facile/internal/obs"
	"facile/internal/rt"
)

// Env is the external (dynamic) state shared with a Facile simulator:
// target memory, syscall devices, and for the timing simulators the branch
// predictor and cache hierarchy. It corresponds to the C code that
// accompanies the paper's Facile descriptions.
type Env struct {
	Prog   *loader.Program
	Mem    *mem.Memory
	Output []byte
	Halted bool
	Exit   int64
	rand   uint64

	Pred   *bpred.Predictor
	Caches *cache.Hierarchy
}

// NewEnv builds an environment with prog loaded. The PRNG seed matches the
// golden functional simulator so outputs compare bit-for-bit.
func NewEnv(prog *loader.Program) *Env {
	m := mem.New()
	prog.LoadInto(m)
	return &Env{Prog: prog, Mem: m, rand: 0x2545F4914F6CDD1D}
}

func (e *Env) nextRand() int64 {
	x := e.rand
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.rand = x
	return int64(x>>1) & 0x7FFFFFFF
}

// text adapts the program to rt.TextSource; out-of-text fetches return an
// invalid word so Facile decode falls into its default (runaway) case.
type text struct{ p *loader.Program }

func (t text) FetchWord(addr uint64) uint32 {
	if !t.p.InText(addr) || addr%4 != 0 {
		return 0xFFFFFFFF
	}
	return t.p.FetchWord(addr)
}

// registerBase installs the externs every description uses (memory,
// syscalls, floating point, shifts).
func (e *Env) registerBase(m *rt.Machine) error {
	regs := map[string]rt.Extern{
		"mem_ld": func(a []int64) int64 {
			addr := uint64(a[0])
			switch a[1] {
			case 1:
				return int64(int8(e.Mem.Read8(addr)))
			case 4:
				return int64(int32(e.Mem.Read32(addr)))
			default:
				return int64(e.Mem.Read64(addr))
			}
		},
		"mem_st": func(a []int64) int64 {
			addr := uint64(a[0])
			switch a[1] {
			case 1:
				e.Mem.Write8(addr, byte(a[2]))
			case 4:
				e.Mem.Write32(addr, uint32(a[2]))
			default:
				e.Mem.Write64(addr, uint64(a[2]))
			}
			return 0
		},
		"sys": func(a []int64) int64 {
			code, a0 := a[0], a[1]
			switch code {
			case isa.SysExit:
				e.Halted = true
				e.Exit = a0
			case isa.SysPrintInt:
				e.Output = append(e.Output, []byte(fmt.Sprintf("%d\n", a0))...)
			case isa.SysPrintChar:
				e.Output = append(e.Output, byte(a0))
			case isa.SysRand:
				return e.nextRand()
			default:
				e.Halted = true
				e.Exit = -1
			}
			return a0
		},
		"stop": func([]int64) int64 {
			e.Halted = true
			return 0
		},
		"fbin": func(a []int64) int64 {
			x := math.Float64frombits(uint64(a[1]))
			y := math.Float64frombits(uint64(a[2]))
			var r float64
			switch a[0] {
			case 0:
				r = x + y
			case 1:
				r = x - y
			case 2:
				r = x * y
			case 3:
				if y == 0 {
					if x < 0 {
						r = math.Inf(-1)
					} else {
						r = math.Inf(1)
					}
				} else {
					r = x / y
				}
			case 4:
				r = -x
			}
			return int64(math.Float64bits(r))
		},
		"fcmp2": func(a []int64) int64 {
			x := math.Float64frombits(uint64(a[0]))
			y := math.Float64frombits(uint64(a[1]))
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		},
		"i2f": func(a []int64) int64 {
			return int64(math.Float64bits(float64(a[0])))
		},
		"f2i": func(a []int64) int64 {
			return int64(math.Float64frombits(uint64(a[0])))
		},
		"lsr": func(a []int64) int64 {
			return int64(uint64(a[0]) >> (uint64(a[1]) & 63))
		},
		"ultu": func(a []int64) int64 {
			if uint64(a[0]) < uint64(a[1]) {
				return 1
			}
			return 0
		},
	}
	for name, fn := range regs {
		if err := m.RegisterExtern(name, fn); err != nil {
			return err
		}
	}
	return nil
}

// registerTiming installs the predictor/cache externs used by the timing
// simulators.
func (e *Env) registerTiming(m *rt.Machine, cfg uarch.Config) error {
	e.Pred = bpred.New(cfg.Pred)
	e.Caches = cache.New(cfg.Mem)
	required := map[string]rt.Extern{
		"dcache": func(a []int64) int64 {
			return int64(e.Caches.Data(uint64(a[0]), uint64(a[1]), false))
		},
		"is_halted": func([]int64) int64 {
			if e.Halted {
				return 1
			}
			return 0
		},
	}
	for name, fn := range required {
		if err := m.RegisterExtern(name, fn); err != nil {
			return err
		}
	}
	// Only the out-of-order description declares the I-cache and
	// predictor externs; registration failures mean "not declared here".
	optional := map[string]rt.Extern{
		"icache": func(a []int64) int64 {
			return int64(e.Caches.Inst(uint64(a[0]), uint64(a[1])))
		},
		"bp_predict": func(a []int64) int64 {
			pc := uint64(a[0])
			in, err := e.Prog.Fetch(pc)
			if err != nil {
				return int64(pc + 4)
			}
			return int64(e.Pred.Predict(in, pc))
		},
		"bp_update": func(a []int64) int64 {
			pc := uint64(a[0])
			in, err := e.Prog.Fetch(pc)
			if err != nil {
				return 0
			}
			e.Pred.Update(in, pc, uint64(a[1]), a[2] != 0)
			return 0
		},
	}
	for name, fn := range optional {
		_ = m.RegisterExtern(name, fn)
	}
	return nil
}

var (
	compileOnce sync.Once
	simFunc     *core.Simulator
	simInOrder  *core.Simulator
	simOOO      *core.Simulator
	compileErr  error
)

func compiled() error {
	compileOnce.Do(func() {
		if simFunc, compileErr = core.CompileSource(facile.FuncSim(), core.Options{}); compileErr != nil {
			compileErr = fmt.Errorf("func.fac: %w", compileErr)
			return
		}
		if simInOrder, compileErr = core.CompileSource(facile.InOrderSim(), core.Options{}); compileErr != nil {
			compileErr = fmt.Errorf("inorder.fac: %w", compileErr)
			return
		}
		if simOOO, compileErr = core.CompileSource(facile.OOOSim(), core.Options{}); compileErr != nil {
			compileErr = fmt.Errorf("ooo.fac: %w", compileErr)
			return
		}
	})
	return compileErr
}

// Options selects memoization behavior for a Facile machine.
type Options struct {
	Memoize       bool
	CacheCapBytes uint64

	// Fault tolerance (see rt.Options): SelfCheck re-executes a sampled
	// fraction of replayable steps on the slow simulator for verification;
	// Inject deterministically corrupts cache entries for testing.
	SelfCheck float64
	Inject    *faults.Injector

	// Obs, when non-nil, receives the underlying rt machine's memoization
	// lifecycle and sampled time series (see rt.Options.Obs). SampleEvery
	// is the sampling interval in executed operations (0 = default).
	Obs         *obs.Recorder
	SampleEvery uint64

	// Uarch overrides the external timing components (predictor tables,
	// cache hierarchy) for the timing simulators; nil = uarch.Default().
	// The functional simulator ignores it.
	Uarch *uarch.Config
}

// uarchConfig resolves the effective micro-architecture.
func (o Options) uarchConfig() uarch.Config {
	if o.Uarch != nil {
		return *o.Uarch
	}
	return uarch.Default()
}

func (o Options) rtOptions() rt.Options {
	return rt.Options{
		Memoize:       o.Memoize,
		CacheCapBytes: o.CacheCapBytes,
		SelfCheck:     o.SelfCheck,
		Inject:        o.Inject,
		Obs:           o.Obs,
		SampleEvery:   o.SampleEvery,
	}
}

// Instance is a runnable Facile simulator over a target program.
type Instance struct {
	M   *rt.Machine
	Env *Env

	// Kind names the constructor that built this instance (a facsim.Kind*
	// constant); snapshot restore and Clone use it to rebuild the machine.
	// Empty for NewOOOCustom instances, which are not snapshot-rebuildable.
	Kind string
	opt  Options
}

// NewFunctional builds the Facile functional simulator for prog.
func NewFunctional(prog *loader.Program, opt Options) (*Instance, error) {
	if err := compiled(); err != nil {
		return nil, err
	}
	env := NewEnv(prog)
	m := simFunc.NewMachine(text{prog}, opt.rtOptions())
	if err := env.registerBase(m); err != nil {
		return nil, err
	}
	if err := m.SetIntArgs(int64(prog.Entry)); err != nil {
		return nil, err
	}
	seedSP(m)
	m.SetStop(func(*rt.Machine) bool { return env.Halted })
	return &Instance{M: m, Env: env, Kind: KindFunctional, opt: opt}, nil
}

// NewInOrder builds the Facile in-order pipeline simulator for prog.
func NewInOrder(prog *loader.Program, opt Options) (*Instance, error) {
	if err := compiled(); err != nil {
		return nil, err
	}
	env := NewEnv(prog)
	m := simInOrder.NewMachine(text{prog}, opt.rtOptions())
	if err := env.registerBase(m); err != nil {
		return nil, err
	}
	if err := env.registerTiming(m, opt.uarchConfig()); err != nil {
		return nil, err
	}
	if err := m.SetIntArgs(int64(prog.Entry)); err != nil {
		return nil, err
	}
	seedSP(m)
	m.SetStop(stopOnDone(m))
	return &Instance{M: m, Env: env, Kind: KindInOrder, opt: opt}, nil
}

// NewOOO builds the Facile out-of-order simulator for prog.
func NewOOO(prog *loader.Program, opt Options) (*Instance, error) {
	if err := compiled(); err != nil {
		return nil, err
	}
	env := NewEnv(prog)
	m := simOOO.NewMachine(text{prog}, opt.rtOptions())
	if err := env.registerBase(m); err != nil {
		return nil, err
	}
	if err := env.registerTiming(m, opt.uarchConfig()); err != nil {
		return nil, err
	}
	// main(iq, fpc, flags, resume)
	if err := m.SetIntArgs(int64(prog.Entry), 0, 0); err != nil {
		return nil, err
	}
	seedSP(m)
	m.SetStop(stopOnDone(m))
	return &Instance{M: m, Env: env, Kind: KindOOO, opt: opt}, nil
}

// stopOnDone builds the timing simulators' stop predicate: stop once the
// description sets its "done" global. The index is resolved here, once per
// machine, not by name on every step.
func stopOnDone(m *rt.Machine) func(*rt.Machine) bool {
	i, ok := m.GlobalIndex("done")
	if !ok {
		return func(*rt.Machine) bool { return false }
	}
	return func(m *rt.Machine) bool { return m.GlobalAt(i) != 0 }
}

// seedSP initializes the simulated stack pointer (r29) in the Facile
// register file, matching the golden model's calling convention.
func seedSP(m *rt.Machine) {
	if r, ok := m.Array("R"); ok {
		r[isa.RegSP] = int64(loader.StackTop)
	}
}

// Result summarizes a Facile simulation run.
type Result struct {
	Insts  uint64
	Cycles uint64
	Output []byte
	Exit   int64
	Stats  rt.Stats
}

// Run drives the instance to completion (or maxSteps) and collects results.
func (in *Instance) Run(maxSteps uint64) (Result, error) {
	if err := in.M.Run(maxSteps); err != nil {
		return Result{}, err
	}
	res := Result{
		Output: in.Env.Output,
		Exit:   in.Env.Exit,
		Stats:  in.M.Stats(),
	}
	if v, ok := in.M.Global("insts"); ok {
		res.Insts = uint64(v)
	} else {
		res.Insts = res.Stats.SlowSteps + res.Stats.Replays
	}
	if v, ok := in.M.Global("cycles"); ok {
		res.Cycles = uint64(v)
	}
	return res, nil
}

// NewOOOCustom builds the Facile out-of-order simulator with explicit
// compiler options (used by the §6.3 optimization ablations; the
// description is recompiled rather than cached).
func NewOOOCustom(prog *loader.Program, opt Options, copt core.Options) (*Instance, error) {
	sim, err := core.CompileSource(facile.OOOSim(), copt)
	if err != nil {
		return nil, err
	}
	env := NewEnv(prog)
	m := sim.NewMachine(text{prog}, opt.rtOptions())
	if err := env.registerBase(m); err != nil {
		return nil, err
	}
	if err := env.registerTiming(m, opt.uarchConfig()); err != nil {
		return nil, err
	}
	if err := m.SetIntArgs(int64(prog.Entry), 0, 0); err != nil {
		return nil, err
	}
	seedSP(m)
	m.SetStop(stopOnDone(m))
	return &Instance{M: m, Env: env}, nil
}
