// Command fsim runs an SVR32 program (a bundled benchmark or an assembly
// file) on any of the simulators in this repository.
//
// Usage:
//
//	fsim -sim func|inorder|ooo|fac-func|fac-inorder|fac-ooo|fastsim [-memo] \
//	     [-selfcheck] [-checkpoint-every N [-checkpoint-dir D]] [-restore FILE] \
//	     [-parsim N [-interval M]] (-bench 126.gcc [-scale N] | file.s)
//
// -selfcheck re-executes every replayable step on the slow simulator,
// verifying the action cache against ground truth; a divergence exits
// non-zero (status 3).
//
// -checkpoint-every saves a versioned snapshot of the complete simulator
// state every N committed instructions (Facile steps for fac-*); -restore
// resumes from one, producing bit-identical results to the uninterrupted
// run. -parsim splits the workload into -interval-sized slices via
// functional warm-up and simulates them concurrently on cloned machines.
//
// fac-* runs first vet the bundled Facile description (the fvet analyzer
// suite) and refuse to start on error-severity findings; -no-vet skips
// the preflight.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"facile/internal/arch/fastsim"
	"facile/internal/cli"
	"facile/internal/facsim"
	"facile/internal/isa/asm"
	"facile/internal/isa/loader"
	"facile/internal/obs"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

func main() {
	simName := flag.String("sim", "func", "simulator: "+strings.Join(runcfg.Engines(), ", "))
	validate := flag.Bool("validate", false, "cross-validate all simulators on the chosen benchmark")
	memo := flag.Bool("memo", false, "enable fast-forwarding (fastsim and fac-* simulators)")
	benchName := flag.String("bench", "", "run a bundled benchmark by name")
	scale := flag.Int("scale", 1, "benchmark scale factor")
	capMB := flag.Uint64("cap", 0, "action cache cap in MB (0 = unlimited)")
	selfCheck := flag.Bool("selfcheck", false,
		"re-execute every replayable step on the slow simulator and verify the action cache (implies -memo)")
	ckEvery := flag.Uint64("checkpoint-every", 0,
		"save a snapshot every N committed instructions (fac-*: Facile steps); 0 = never")
	ckDir := flag.String("checkpoint-dir", ".", "directory for saved snapshots")
	restorePath := flag.String("restore", "", "resume from a snapshot file (same -sim/-bench/-scale as the saving run)")
	parWorkers := flag.Int("parsim", 0,
		"run parallel interval simulation with N workers (requires -sim fastsim)")
	parInterval := flag.Uint64("interval", 1<<20, "interval length in instructions for -parsim")
	traceOut := flag.String("trace-out", "",
		"write a Chrome trace_event JSON file of the run (open in Perfetto / chrome://tracing)")
	debugAddr := flag.String("debug-addr", "",
		"serve /debug/vars, /debug/metrics and /debug/pprof on this address during the run (e.g. :8080)")
	sampleEvery := flag.Uint64("sample-every", 0,
		"instructions between observability samples (0 = default)")
	noVet := flag.Bool("no-vet", false,
		"skip the static-analysis preflight of the bundled Facile description (fac-* simulators)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		cli.PrintVersion("fsim")
		return
	}
	if *selfCheck {
		*memo = true
	}

	var rec *obs.Recorder
	if *traceOut != "" || *debugAddr != "" {
		rec = obs.NewRecorder(obs.Config{})
	}
	if *debugAddr != "" {
		_, addr, err := obs.Serve(*debugAddr, rec)
		if err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "fsim: debug endpoint at http://%s/debug/vars\n", addr)
	}
	// Written on normal exit only; die() paths skip the trace (the run did
	// not finish, so its event stream would be misleading anyway).
	defer writeTrace(rec, *traceOut)

	var prog *loader.Program
	switch {
	case *benchName != "":
		w, err := workloads.Get(*benchName, *scale)
		if err != nil {
			die(err)
		}
		prog = w.Prog
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			die(err)
		}
		prog, err = asm.Assemble(flag.Arg(0), string(src))
		if err != nil {
			die(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: fsim -sim NAME (-bench NAME | file.s)")
		os.Exit(2)
	}

	if *validate {
		if *benchName == "" {
			die(fmt.Errorf("-validate requires -bench"))
		}
		if err := runcfg.ValidateBenchmark(*benchName, *scale); err != nil {
			die(err)
		}
		fmt.Printf("%s @ scale %d: all simulators agree (outputs, exits, memoized cycle counts)\n",
			*benchName, *scale)
		return
	}

	cfg := runcfg.Config{
		Engine:        *simName,
		Memoize:       *memo,
		CacheCapBytes: *capMB << 20,
		Obs:           rec,
		SampleEvery:   *sampleEvery,
	}
	if *selfCheck {
		cfg.SelfCheck = 1.0
	}
	ck := ckpt{every: *ckEvery, dir: *ckDir, restore: *restorePath, base: *simName}
	if *benchName != "" {
		ck.base = *simName + "-" + *benchName
	}

	t0 := time.Now()
	if *parWorkers > 0 {
		if *simName != runcfg.EngineFastsim {
			die(fmt.Errorf("-parsim requires -sim fastsim"))
		}
		opt := fastsim.Options{Memoize: *memo, CacheCapBytes: cfg.CacheCapBytes,
			Obs: rec, SampleEvery: *sampleEvery}
		runParsim(prog, opt, *parWorkers, *parInterval, t0)
		return
	}

	if !*noVet {
		if sum, ok := facsim.Preflight(*simName); ok && !sum.OK() {
			for _, f := range sum.ErrorFindings {
				fmt.Fprintln(os.Stderr, "fsim: vet:", f)
			}
			die(fmt.Errorf("%s: %d error-severity vet finding(s) in the bundled description; rerun with -no-vet to override",
				*simName, sum.Errors))
		}
	}

	r, err := runcfg.New(prog, cfg)
	if err != nil {
		die(err)
	}
	res := runCkpt(r, ck)
	report(res.Insts, res.Cycles, res.Output, time.Since(t0))
	summarize(r, res, cfg, ck)
}

// summarize prints the engine-specific closing lines after the generic
// instruction/cycle report.
func summarize(r runcfg.Runner, res runcfg.Result, cfg runcfg.Config, ck ckpt) {
	st := r.Stats()
	switch {
	case cfg.Engine == runcfg.EngineOOO:
		fmt.Printf("IPC %.3f, %d mispredicts, %d L1D misses\n",
			res.IPC(), res.Mispredicts, res.L1DMisses)
	case cfg.Engine == runcfg.EngineFastsim:
		fmt.Printf("fast-forwarded %.3f%%, %d misses, %.1f MB memoized, %d clears\n",
			st.FastForwardedPc, st.Misses, float64(st.TotalMemoBytes)/(1<<20), st.CacheClears)
	case strings.HasPrefix(cfg.Engine, "fac-"):
		fmt.Printf("steps: %d slow, %d replayed, %d recoveries, %.1f MB memoized\n",
			st.SlowSteps, st.Replays, st.Misses, float64(st.TotalMemoBytes)/(1<<20))
	}
	selfChecking := cfg.SelfCheck > 0 && cfg.Memoizing()
	if st.Faults != 0 || st.DegradedSteps != 0 || selfChecking {
		fmt.Printf("faults: %d detected, %d invalidations, %d degraded steps, %d watchdog trips\n",
			st.Faults, st.Invalidations, st.DegradedSteps, st.WatchdogTrips)
	}
	if ck.active() {
		if h, ok := r.(interface{ Hash() string }); ok {
			fmt.Printf("final state %s\n", h.Hash()[:16])
		}
	}
	if selfChecking {
		fmt.Printf("self-check: %d steps verified, %d divergences\n",
			st.SelfChecks, st.SelfCheckDivergences)
		if st.SelfCheckDivergences != 0 {
			fmt.Fprintf(os.Stderr, "fsim: self-check divergence: %v\n", r.LastFault())
			os.Exit(3)
		}
	}
}

func report(insts, cycles uint64, output []byte, d time.Duration) {
	os.Stdout.Write(output)
	if cycles > 0 {
		fmt.Printf("[%d instructions, %d cycles, %v, %.2f Msim-inst/s]\n",
			insts, cycles, d.Round(time.Millisecond), float64(insts)/d.Seconds()/1e6)
	} else {
		fmt.Printf("[%d instructions, %v, %.2f Msim-inst/s]\n",
			insts, d.Round(time.Millisecond), float64(insts)/d.Seconds()/1e6)
	}
}

// writeTrace dumps the recorder's event ring and sampled time series as a
// Chrome trace_event JSON file (Perfetto / chrome://tracing loadable).
func writeTrace(rec *obs.Recorder, path string) {
	if rec == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		die(err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		die(err)
	}
	if err := f.Close(); err != nil {
		die(err)
	}
	var n uint64
	for _, c := range rec.Totals() {
		n += c
	}
	fmt.Fprintf(os.Stderr, "fsim: wrote %s (%d lifecycle events, %d samples)\n",
		path, n, len(rec.Samples()))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "fsim:", err)
	os.Exit(1)
}
