package runcfg

import (
	"bytes"
	"fmt"

	"facile/internal/arch/fastsim"
	"facile/internal/arch/funcsim"
	"facile/internal/arch/ooo"
	"facile/internal/arch/uarch"
	"facile/internal/facsim"
	"facile/internal/workloads"
)

// ValidateBenchmark cross-validates every simulator in the repository on
// one workload:
//
//   - architectural results (output, exit status) of all seven simulator
//     configurations must equal the golden functional model's;
//   - the memoizing simulators must produce cycle counts identical to
//     their non-memoizing twins.
//
// It returns a descriptive error on the first violation. The test suites
// and cmd/fsim -validate both use it.
func ValidateBenchmark(name string, scale int) error {
	w, err := workloads.Get(name, scale)
	if err != nil {
		return err
	}
	_, golden, err := funcsim.Run(w.Prog, 0)
	if err != nil {
		return fmt.Errorf("%s: golden model: %w", name, err)
	}
	check := func(sim string, output []byte, exit int64) error {
		if !bytes.Equal(output, golden.Output) {
			return fmt.Errorf("%s: %s output %q != golden %q", name, sim, output, golden.Output)
		}
		if exit != golden.ExitStatus {
			return fmt.Errorf("%s: %s exit %d != golden %d", name, sim, exit, golden.ExitStatus)
		}
		return nil
	}
	cfg := uarch.Default()

	// Conventional OOO baseline.
	base := ooo.Run(cfg, w.Prog, 0)
	if err := check("ooo", base.Output, base.ExitStatus); err != nil {
		return err
	}

	// Hand-coded memoizing simulator, both modes, identical cycles.
	plain := fastsim.New(cfg, w.Prog, fastsim.Options{Memoize: false}).Run(0)
	if err := check("fastsim", plain.Output, plain.ExitStatus); err != nil {
		return err
	}
	memo := fastsim.New(cfg, w.Prog, fastsim.Options{Memoize: true}).Run(0)
	if err := check("fastsim+memo", memo.Output, memo.ExitStatus); err != nil {
		return err
	}
	if plain.Cycles != memo.Cycles {
		return fmt.Errorf("%s: fastsim cycles %d (memo) != %d (plain)", name, memo.Cycles, plain.Cycles)
	}

	// Memoizing with self-checking over a deliberately small cache: sampled
	// steps re-run on the slow simulator and must never diverge from the
	// recorded actions, and cycle counts must still match the plain run.
	scSim := fastsim.New(cfg, w.Prog, fastsim.Options{
		Memoize:       true,
		SelfCheck:     0.25,
		CacheCapBytes: 1 << 16,
	})
	scRes := scSim.Run(0)
	if err := check("fastsim+selfcheck", scRes.Output, scRes.ExitStatus); err != nil {
		return err
	}
	if scRes.Cycles != plain.Cycles {
		return fmt.Errorf("%s: fastsim+selfcheck cycles %d != %d (plain)", name, scRes.Cycles, plain.Cycles)
	}
	if st := scSim.Stats(); st.SelfCheckDivergences != 0 {
		return fmt.Errorf("%s: fastsim self-check diverged %d times (last: %v)",
			name, st.SelfCheckDivergences, scSim.LastFault())
	}

	// Facile simulators: functional, and OOO in both modes with identical
	// cycles. (The in-order model is validated in the facsim tests; it is
	// too slow to sweep the whole suite here.)
	ff, err := facsim.NewFunctional(w.Prog, facsim.Options{Memoize: true})
	if err != nil {
		return err
	}
	fres, err := ff.Run(0)
	if err != nil {
		return fmt.Errorf("%s: facile functional: %w", name, err)
	}
	if err := check("facile-func", fres.Output, fres.Exit); err != nil {
		return err
	}
	if fres.Stats.SlowSteps+fres.Stats.Replays != golden.Insts {
		return fmt.Errorf("%s: facile functional steps %d != golden insts %d",
			name, fres.Stats.SlowSteps+fres.Stats.Replays, golden.Insts)
	}

	var oooCycles [2]uint64
	for i, m := range []bool{false, true} {
		in, err := facsim.NewOOO(w.Prog, facsim.Options{Memoize: m})
		if err != nil {
			return err
		}
		res, err := in.Run(0)
		if err != nil {
			return fmt.Errorf("%s: facile ooo (memo=%v): %w", name, m, err)
		}
		tag := "facile-ooo"
		if m {
			tag = "facile-ooo+memo"
		}
		if err := check(tag, res.Output, res.Exit); err != nil {
			return err
		}
		oooCycles[i] = res.Cycles
	}
	if oooCycles[0] != oooCycles[1] {
		return fmt.Errorf("%s: facile ooo cycles %d (memo) != %d (plain)", name, oooCycles[1], oooCycles[0])
	}

	// Facile OOO memoizing with self-checking over a small cache: results
	// and cycles must match the plain run with zero divergences.
	fsc, err := facsim.NewOOO(w.Prog, facsim.Options{
		Memoize:       true,
		SelfCheck:     0.25,
		CacheCapBytes: 1 << 18,
	})
	if err != nil {
		return err
	}
	fscRes, err := fsc.Run(0)
	if err != nil {
		return fmt.Errorf("%s: facile ooo (self-check): %w", name, err)
	}
	if err := check("facile-ooo+selfcheck", fscRes.Output, fscRes.Exit); err != nil {
		return err
	}
	if fscRes.Cycles != oooCycles[0] {
		return fmt.Errorf("%s: facile ooo self-check cycles %d != %d (plain)", name, fscRes.Cycles, oooCycles[0])
	}
	if fscRes.Stats.SelfCheckDivergences != 0 {
		return fmt.Errorf("%s: facile ooo self-check diverged %d times (last: %v)",
			name, fscRes.Stats.SelfCheckDivergences, fsc.M.LastFault())
	}
	return nil
}
