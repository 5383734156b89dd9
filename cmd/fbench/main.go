// Command fbench prints the paper's evaluation (§6): Figure 11, Table 1,
// Table 2, Figure 12, the description-size report, and the
// cache-capacity ablation. Absolute rates depend on the host; the shapes
// (who wins, by what factor, where the crossovers fall) are the
// reproduction target — see EXPERIMENTS.md. The timing gate is the
// benchmark in benchmark/, not this command.
//
// Usage:
//
//	fbench -exp fig11|table1|table2|fig12|loc|cachecap|all
//	       [-scale N] [-bench name,...] [-capbench name]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"facile/internal/cli"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig11, table1, table2, fig12, loc, cachecap, all")
	scale := flag.Int("scale", 10, "workload scale factor")
	benches := flag.String("bench", "", "comma-separated benchmark names (default: full suite)")
	capName := flag.String("capbench", "126.gcc", "benchmark for the cache-capacity ablation")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		cli.PrintVersion("fbench")
		return
	}
	names := workloads.Names()
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	if err := run(os.Stdout, *exp, names, *scale, *capName); err != nil {
		fmt.Fprintln(os.Stderr, "fbench:", err)
		os.Exit(1)
	}
}

// run prints one experiment, or all of them, to w.
func run(w io.Writer, exp string, names []string, scale int, capName string) error {
	switch exp {
	case "fig11", "table1":
		rows, err := figureRows(names, scale, runcfg.EngineFastsim)
		if err != nil {
			return err
		}
		if exp == "fig11" {
			writeFigure(w, "Figure 11: FastSim-role simulator vs conventional baseline", rows)
		} else {
			writeTable1(w, rows)
		}
	case "table2":
		rows, err := table2Rows(names, scale)
		if err != nil {
			return err
		}
		writeTable2(w, rows)
	case "fig12":
		rows, err := figureRows(names, scale, runcfg.EngineFacOOO)
		if err != nil {
			return err
		}
		writeFigure(w, "Figure 12: Facile-compiled OOO simulator vs conventional baseline", rows)
	case "loc":
		writeLoC(w)
	case "cachecap":
		caps := []uint64{0, 16 << 20, 4 << 20, 1 << 20, 256 << 10, 64 << 10}
		pts, err := capSweep(capName, scale, caps)
		if err != nil {
			return err
		}
		writeCapSweep(w, capName, pts)
	case "all":
		for _, sub := range []string{"fig11", "table1", "table2", "fig12", "cachecap", "loc"} {
			if err := run(w, sub, names, scale, capName); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
