// Command fbench regenerates the paper's evaluation: Figure 11, Table 1,
// Table 2, Figure 12, the description-size report, and the
// cache-capacity ablation.
//
// Usage:
//
//	fbench -exp fig11|table1|table2|fig12|loc|cachecap|all
//	       [-scale N] [-bench name,...] [-parallel N] [-json PATH]
//	fbench -bench-out BENCH_1.json [-scale N] [-bench name,...] [-parallel N]
//	fbench -server http://HOST:PORT [-engine NAME] [-memoize]
//	       [-scale N] [-bench name,...]
//
// -bench-out writes the canonical benchmark artifact: the per-workload
// Msim-inst/s table plus a warm-vs-cold-restart record per workload, in
// which the cache round-trips through a real on-disk store (the fsimd
// restart scenario) before warming the second run.
//
// -parallel shards the suite's benchmarks across N goroutines; every
// deterministic output field is bit-identical to a sequential run, only
// the host-timing (MIPS, wall-clock) fields vary. -json writes the full
// machine-readable report alongside the text output.
//
// -server switches to client mode: each selected benchmark is submitted
// as a job to a running fsimd and the per-job results (including the
// warm-start and fast-share columns) are reported when they finish.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"facile/internal/bench"
	"facile/internal/cli"
	"facile/internal/runcfg"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig11, table1, table2, fig12, loc, cachecap, all")
	scale := flag.Int("scale", 10, "workload scale factor")
	benches := flag.String("bench", "", "comma-separated benchmark names (default: full suite)")
	capName := flag.String("capbench", "126.gcc", "benchmark for the cache-capacity ablation")
	parallel := flag.Int("parallel", 1, "benchmarks simulated concurrently")
	jsonPath := flag.String("json", "", "write a machine-readable report to this path")
	benchOut := flag.String("bench-out", "",
		"write the canonical per-workload rate + warm-restart artifact (BENCH_<n>.json) to this path")
	compareTo := flag.String("bench-compare", "",
		"with -bench-out: gate the fresh artifact against this baseline (exit 1 on regression)")
	noise := flag.Float64("noise", bench.DefaultNoiseBand,
		"allowed fractional throughput loss for -bench-compare (deterministic counts must match exactly)")
	server := flag.String("server", "", "fsimd base URL; submit jobs there instead of simulating locally")
	engine := flag.String("engine", runcfg.EngineFastsim, "engine for -server jobs")
	memoize := flag.Bool("memoize", true, "memoize -server jobs (required for warm-cache sharing)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		cli.PrintVersion("fbench")
		return
	}
	if *server != "" {
		var names []string
		if *benches != "" {
			names = strings.Split(*benches, ",")
		}
		if err := runClient(*server, *engine, names, *scale, *memoize); err != nil {
			fmt.Fprintln(os.Stderr, "fbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Workers = *parallel
	if *benches != "" {
		cfg.Names = strings.Split(*benches, ",")
	}

	if *benchOut != "" {
		out, err := bench.RunBenchOut(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbench:", err)
			os.Exit(1)
		}
		bench.WriteFigure(os.Stdout, "Per-workload simulation rates", out.Rows)
		fmt.Println()
		bench.WriteWarmRestart(os.Stdout, out.WarmRestart)
		if err := out.WriteFile(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "fbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fbench: wrote %s\n", *benchOut)
		if *compareTo != "" {
			baseline, err := bench.ReadBenchOut(*compareTo)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fbench:", err)
				os.Exit(1)
			}
			if violations := bench.Compare(baseline, out, *noise); len(violations) > 0 {
				fmt.Fprintf(os.Stderr, "fbench: regression gate vs %s FAILED:\n", *compareTo)
				for _, v := range violations {
					fmt.Fprintf(os.Stderr, "  - %s\n", v)
				}
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "fbench: regression gate vs %s passed (%d workloads, noise band %d%%)\n",
				*compareTo, len(baseline.Rows), int(*noise*100))
		}
		return
	}

	started := time.Now()
	report := bench.NewReport(cfg.Scale, cfg.Workers, started)

	var run func(string) error
	run = func(name string) error {
		t0 := time.Now()
		e := bench.Experiment{Name: name}
		switch name {
		case "fig11", "table1":
			rows, err := bench.Figure11(cfg)
			if err != nil {
				return err
			}
			if name == "fig11" {
				bench.WriteFigure(os.Stdout, "Figure 11: FastSim-role simulator vs conventional baseline", rows)
			} else {
				bench.WriteTable1(os.Stdout, rows)
			}
			e.Rows = rows
		case "table2":
			rows, err := bench.Table2(cfg)
			if err != nil {
				return err
			}
			bench.WriteTable2(os.Stdout, rows)
			e.Rows = rows
		case "fig12":
			rows, err := bench.Figure12(cfg)
			if err != nil {
				return err
			}
			bench.WriteFigure(os.Stdout, "Figure 12: Facile-compiled OOO simulator vs conventional baseline", rows)
			e.Rows = rows
		case "loc":
			bench.WriteLoC(os.Stdout)
			e.LoC = bench.LoCReport()
		case "cachecap":
			caps := []uint64{0, 16 << 20, 4 << 20, 1 << 20, 256 << 10, 64 << 10}
			pts, err := bench.CacheCapSweep(*capName, cfg.Scale, caps)
			if err != nil {
				return err
			}
			bench.WriteCapSweep(os.Stdout, *capName, pts)
			e.Sweep = pts
		case "all":
			for _, sub := range []string{"fig11", "table1", "table2", "fig12", "cachecap", "loc"} {
				if err := run(sub); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		e.WallSec = time.Since(t0).Seconds()
		report.Add(e)
		return nil
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "fbench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath, time.Since(started)); err != nil {
			fmt.Fprintln(os.Stderr, "fbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fbench: wrote %s\n", *jsonPath)
	}
}
