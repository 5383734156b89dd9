package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"facile/facile"
	"facile/internal/arch/fastsim"
	"facile/internal/arch/uarch"
	"facile/internal/isa/loader"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

// paperCapM is the action-cache cap of the figure runs, in MB (paper: 256).
const paperCapM = 256

// row is one benchmark's measurements for a figure or table: simulated
// instructions per second of host time for each simulator, plus the
// memoizing run's deterministic counters.
type row struct {
	Name          string
	Insts, Cycles uint64

	MemoMIPS   float64 // memoizing simulator
	NoMemoMIPS float64 // same simulator without memoization
	BaseMIPS   float64 // conventional baseline ("SimpleScalar")

	FastFwdPct float64 // Table 1
	Misses     uint64
	MemoBytes  uint64 // Table 2
}

// timedRun builds an engine through the shared run-setup layer, drives it
// to completion, and reports the result, unified stats, and wall time.
func timedRun(prog *loader.Program, cfg runcfg.Config) (runcfg.Result, runcfg.Stats, time.Duration, error) {
	r, err := runcfg.New(prog, cfg)
	if err != nil {
		return runcfg.Result{}, runcfg.Stats{}, 0, err
	}
	t0 := time.Now()
	if err := r.Run(0); err != nil {
		return runcfg.Result{}, runcfg.Stats{}, 0, err
	}
	return r.Result(), r.Stats(), time.Since(t0), nil
}

func mips(insts uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(insts) / d.Seconds() / 1e6
}

// hmean computes the harmonic mean of positive values.
func hmean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += 1 / v
	}
	return float64(len(vals)) / s
}

// figureRows runs the three-way comparison behind Figures 11 and 12 (and
// the inputs of Table 1): the chosen memoizing engine with and without
// fast-forwarding versus the conventional out-of-order baseline. A
// memoizing run whose cycle count differs from its non-memoizing twin is
// a validation failure.
func figureRows(names []string, scale int, engine string) ([]row, error) {
	rows := make([]row, 0, len(names))
	for _, name := range names {
		w, err := workloads.Get(name, scale)
		if err != nil {
			return nil, err
		}
		base, _, dBase, err := timedRun(w.Prog, runcfg.Config{Engine: runcfg.EngineOOO})
		if err != nil {
			return nil, err
		}
		plain, _, dPlain, err := timedRun(w.Prog, runcfg.Config{Engine: engine})
		if err != nil {
			return nil, fmt.Errorf("%s (no memo): %w", name, err)
		}
		memo, st, dMemo, err := timedRun(w.Prog, runcfg.Config{
			Engine: engine, Memoize: true, CacheCapBytes: paperCapM << 20,
		})
		if err != nil {
			return nil, fmt.Errorf("%s (memo): %w", name, err)
		}
		if plain.Cycles != memo.Cycles {
			return nil, fmt.Errorf("%s: memoized cycle count %d != plain %d (validation failure)",
				name, memo.Cycles, plain.Cycles)
		}
		rows = append(rows, row{
			Name:       name,
			Insts:      memo.Insts,
			Cycles:     memo.Cycles,
			MemoMIPS:   mips(memo.Insts, dMemo),
			NoMemoMIPS: mips(plain.Insts, dPlain),
			BaseMIPS:   mips(base.Insts, dBase),
			FastFwdPct: st.FastForwardedPc,
			Misses:     st.Misses,
			MemoBytes:  st.TotalMemoBytes,
		})
	}
	return rows, nil
}

// table2Rows measures the quantity of memoized data with an unlimited
// cache (the paper measured total memoized data, not the capped working
// set).
func table2Rows(names []string, scale int) ([]row, error) {
	rows := make([]row, 0, len(names))
	for _, name := range names {
		w, err := workloads.Get(name, scale)
		if err != nil {
			return nil, err
		}
		res, st, _, err := timedRun(w.Prog, runcfg.Config{Engine: runcfg.EngineFastsim, Memoize: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{Name: name, Insts: res.Insts, MemoBytes: st.TotalMemoBytes})
	}
	return rows, nil
}

// capPoint is one point of the cache-capacity ablation (§6.1: limiting
// and clearing the cache costs little performance).
type capPoint struct {
	CapBytes  uint64
	MIPS      float64
	Clears    uint64
	PeakBytes uint64
	Cycles    uint64
}

// capSweep reruns one benchmark under shrinking action-cache caps.
func capSweep(name string, scale int, caps []uint64) ([]capPoint, error) {
	w, err := workloads.Get(name, scale)
	if err != nil {
		return nil, err
	}
	var pts []capPoint
	for _, cap := range caps {
		s := fastsim.New(uarch.Default(), w.Prog, fastsim.Options{Memoize: true, CacheCapBytes: cap})
		t0 := time.Now()
		res := s.Run(0)
		d := time.Since(t0)
		st := s.Stats()
		pts = append(pts, capPoint{
			CapBytes:  cap,
			MIPS:      mips(res.Insts, d),
			Clears:    st.CacheClears,
			PeakBytes: st.CacheBytes,
			Cycles:    res.Cycles,
		})
	}
	return pts, nil
}

// locReport reproduces the paper's §6.2 code-size comparison: lines of
// Facile per simulator description (the paper: 1,959 Facile + 992 C for
// the out-of-order simulator; 703 Facile functional; 965 Facile in-order).
func locReport() map[string]int {
	out := map[string]int{}
	for name, src := range facile.Sources() {
		n := 0
		for _, line := range strings.Split(src, "\n") {
			t := strings.TrimSpace(line)
			if t == "" || strings.HasPrefix(t, "//") {
				continue
			}
			n++
		}
		out[name] = n
	}
	return out
}

// --- formatting -----------------------------------------------------------

// writeFigure writes a figure's rows in the paper's layout: one bar group
// per benchmark with the three simulators, plus speedup summaries.
func writeFigure(w io.Writer, title string, rows []row) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-14s %12s | %10s %10s %10s | %8s %8s\n",
		"benchmark", "sim insts", "memo", "no-memo", "baseline", "memo/no", "memo/base")
	fmt.Fprintf(w, "%-14s %12s | %10s %10s %10s | %8s %8s\n",
		"", "", "Msim-i/s", "Msim-i/s", "Msim-i/s", "", "")
	var spMemoNo, spMemoBase, spNoBase []float64
	for _, r := range rows {
		sn := r.MemoMIPS / math.Max(r.NoMemoMIPS, 1e-9)
		sb := r.MemoMIPS / math.Max(r.BaseMIPS, 1e-9)
		fmt.Fprintf(w, "%-14s %12d | %10.2f %10.2f %10.2f | %7.1fx %7.1fx\n",
			r.Name, r.Insts, r.MemoMIPS, r.NoMemoMIPS, r.BaseMIPS, sn, sb)
		spMemoNo = append(spMemoNo, sn)
		spMemoBase = append(spMemoBase, sb)
		spNoBase = append(spNoBase, r.NoMemoMIPS/math.Max(r.BaseMIPS, 1e-9))
	}
	fmt.Fprintf(w, "harmonic means: memo/no-memo %.2fx   memo/baseline %.2fx   no-memo/baseline %.2fx\n",
		hmean(spMemoNo), hmean(spMemoBase), hmean(spNoBase))
}

// writeTable1 writes the percentage-fast-forwarded table.
func writeTable1(w io.Writer, rows []row) {
	fmt.Fprintf(w, "Table 1: Percentage of instructions fast-forwarded\n")
	fmt.Fprintf(w, "%-14s %12s %10s %10s\n", "benchmark", "insts", "% fastfwd", "misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %9.3f%% %10d\n", r.Name, r.Insts, r.FastFwdPct, r.Misses)
	}
}

// writeTable2 writes the quantity-of-memoized-data table.
func writeTable2(w io.Writer, rows []row) {
	fmt.Fprintf(w, "Table 2: Quantity of memoized data\n")
	fmt.Fprintf(w, "%-14s %12s %12s\n", "benchmark", "insts", "MB cached")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %12.2f\n", r.Name, r.Insts, float64(r.MemoBytes)/(1<<20))
	}
}

// writeCapSweep writes the cache-capacity ablation.
func writeCapSweep(w io.Writer, name string, pts []capPoint) {
	fmt.Fprintf(w, "Cache-capacity ablation (%s): clear-when-full policy\n", name)
	fmt.Fprintf(w, "%12s %10s %8s %12s %12s\n", "cap", "Msim-i/s", "clears", "peak bytes", "cycles")
	for _, p := range pts {
		cap := "unlimited"
		if p.CapBytes > 0 {
			cap = fmt.Sprintf("%d KiB", p.CapBytes>>10)
		}
		fmt.Fprintf(w, "%12s %10.2f %8d %12d %12d\n", cap, p.MIPS, p.Clears, p.PeakBytes, p.Cycles)
	}
}

// writeLoC writes the description-size report.
func writeLoC(w io.Writer) {
	fmt.Fprintf(w, "Facile description sizes (non-blank, non-comment lines; paper §6.2)\n")
	paper := map[string]string{
		"svr32.fac":   "ISA description (shared)",
		"func.fac":    "functional simulator (paper: 703 lines of Facile)",
		"inorder.fac": "in-order pipeline (paper: 965 lines of Facile + 11 C)",
		"ooo.fac":     "out-of-order simulator (paper: 1,959 lines of Facile + 992 C)",
	}
	loc := locReport()
	for _, name := range []string{"svr32.fac", "func.fac", "inorder.fac", "ooo.fac"} {
		fmt.Fprintf(w, "%-14s %5d lines   %s\n", name, loc[name], paper[name])
	}
}
