package main

import (
	"bytes"
	"fmt"
	"time"

	"facile/facile"
	"facile/internal/core"
	"facile/internal/facsim"
	"facile/internal/isa/loader"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

// program is one assembled input with the golden functional model's result,
// which every other engine's (insts, output, exit) must equal.
type program struct {
	ID   progID
	Prog *loader.Program
	Ref  runcfg.Result
}

// fixture is what set-up builds before the first timed call.
type fixture struct {
	programs map[progID]*program
	// lineageRef is the direct-run result of each stream lineage, which every
	// job of that lineage must reproduce (cycles included).
	lineageRef []runcfg.Result

	// Set-up layer timings (per-layer metrics).
	assembleMs  float64
	compileMs   map[string]float64 // func, inorder, ooo
	preflightMs float64
	referenceS  float64
}

// buildFixture assembles every program the workload touches, compiles and
// vets the three Facile descriptions, and makes the reference runs. extra
// names programs beyond the workload's own (the traced run's probe program);
// tr may be nil.
func buildFixture(w workloadDef, seed int64, tr *tracer, extra ...progID) (*fixture, error) {
	fx := &fixture{programs: map[progID]*program{}, compileMs: map[string]float64{}}
	root := tr.begin("benchmark.setup", w.Name, -1, 0)
	defer func() { tr.end(root, nil) }()

	// Assemble. Stream lineages run their program at scale 1.
	need := map[progID]bool{}
	for _, id := range extra {
		need[id] = true
	}
	for _, p := range w.Direct {
		for _, r := range p.Runs {
			need[r.Prog] = true
		}
	}
	for _, l := range w.Stream.Lineages {
		need[progID{l.Bench, 1}] = true
	}
	sp := tr.begin("asm.assemble", w.Name, root, 0)
	t0 := time.Now()
	for id := range need {
		var prog *loader.Program
		var err error
		if id.Bench == randomBench {
			prog, err = workloads.Random(seed*7919+int64(id.N), randomBodyOps, randomIters)
		} else {
			var wl *workloads.Workload
			if wl, err = workloads.Get(id.Bench, id.N); err == nil {
				prog = wl.Prog
			}
		}
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", id, err)
		}
		fx.programs[id] = &program{ID: id, Prog: prog}
	}
	fx.assembleMs = ms(time.Since(t0))
	tr.end(sp, map[string]float64{"programs": float64(len(need))})

	// Compile and vet the descriptions. facsim caches its own compile and
	// preflight per process; these direct calls time the uncached work, and
	// the reference runs below absorb facsim's lazy first compile, so no
	// timed call pays it.
	for _, d := range []struct{ name, src string }{
		{"func", facile.FuncSim()}, {"inorder", facile.InOrderSim()}, {"ooo", facile.OOOSim()},
	} {
		sp := tr.begin("lang.compile", d.name, root, 0)
		t0 := time.Now()
		if _, err := core.CompileSource(d.src, core.Options{}); err != nil {
			return nil, fmt.Errorf("compile %s.fac: %w", d.name, err)
		}
		fx.compileMs[d.name] = ms(time.Since(t0))
		tr.end(sp, nil)
	}
	sp = tr.begin("lang.vet_preflight", w.Name, root, 0)
	t0 = time.Now()
	for _, kind := range []string{facsim.KindFunctional, facsim.KindInOrder, facsim.KindOOO} {
		s, ok := facsim.Preflight(kind)
		if !ok || !s.OK() {
			return nil, fmt.Errorf("preflight %s: %d error findings", kind, s.Errors)
		}
	}
	fx.preflightMs = ms(time.Since(t0))
	tr.end(sp, nil)

	// Golden functional reference of every program.
	sp = tr.begin("funcsim.reference", w.Name, root, 0)
	t0 = time.Now()
	for _, p := range fx.programs {
		r, err := runcfg.New(p.Prog, runcfg.Config{Engine: runcfg.EngineFunc})
		if err != nil {
			return nil, err
		}
		if err := r.Run(0); err != nil {
			return nil, fmt.Errorf("reference run %s: %w", p.ID, err)
		}
		p.Ref = r.Result()
	}
	fx.referenceS = time.Since(t0).Seconds()
	tr.end(sp, map[string]float64{"programs": float64(len(fx.programs))})

	// Direct result of every stream lineage, for the job check.
	sp = tr.begin("benchmark.lineage_refs", w.Name, root, 0)
	for _, l := range w.Stream.Lineages {
		p := fx.programs[progID{l.Bench, 1}]
		r, err := runcfg.New(p.Prog, runcfg.Config{Engine: l.Engine, Memoize: true, CacheCapBytes: l.Cap})
		if err != nil {
			return nil, err
		}
		if err := r.Run(0); err != nil {
			return nil, fmt.Errorf("lineage reference %s/%s: %w", l.Bench, l.Engine, err)
		}
		res := r.Result()
		if err := checkAgainstRef(res, p.Ref); err != nil {
			return nil, fmt.Errorf("lineage reference %s/%s: %w", l.Bench, l.Engine, err)
		}
		fx.lineageRef = append(fx.lineageRef, res)
	}
	tr.end(sp, nil)
	return fx, nil
}

// checkAgainstRef compares the architectural outcome of a run with the
// functional reference.
func checkAgainstRef(got, ref runcfg.Result) error {
	if got.Insts != ref.Insts || got.Exit != ref.Exit || !bytes.Equal(got.Output, ref.Output) {
		return fmt.Errorf("result differs from the func reference: insts %d/%d exit %d/%d output %q/%q",
			got.Insts, ref.Insts, got.Exit, ref.Exit, got.Output, ref.Output)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
