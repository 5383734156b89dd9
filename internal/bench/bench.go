// Package bench implements the paper's evaluation harness: for every table
// and figure in §6 it runs the corresponding simulators over the
// SPEC95-substitute workload suite and reports the same rows/series the
// paper reports. Absolute numbers depend on the host; the shapes (who
// wins, by what factor, where the crossovers fall) are the reproduction
// target — see EXPERIMENTS.md.
package bench

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
	"facile/internal/parsim"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

// Config controls an experiment run.
type Config struct {
	Scale     int      // workload scale factor
	Names     []string // benchmarks to run; nil = full suite
	CacheCap  uint64   // action cache cap in bytes (0 = unlimited)
	PaperCapM uint64   // cap used for the figure runs, in MB (paper: 256)
	Workers   int      // benchmarks simulated concurrently (<=1 = sequential)
}

// DefaultConfig mirrors the paper's setup at a laptop-friendly scale.
func DefaultConfig() Config {
	return Config{Scale: 10, PaperCapM: 256}
}

func (c Config) names() []string {
	if len(c.Names) > 0 {
		return c.Names
	}
	return workloads.Names()
}

// Row is one benchmark's measurements for a figure: simulated instructions
// per second of host time for each simulator.
type Row struct {
	Name   string `json:"name"`
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles,omitempty"`

	MemoMIPS   float64 `json:"memo_mips,omitempty"`    // memoizing simulator
	NoMemoMIPS float64 `json:"no_memo_mips,omitempty"` // same simulator without memoization
	BaseMIPS   float64 `json:"base_mips,omitempty"`    // conventional baseline ("SimpleScalar")

	FastFwdPct float64 `json:"fastfwd_pct"` // Table 1
	MemoBytes  uint64  `json:"memo_bytes"`  // Table 2
	Misses     uint64  `json:"misses"`
	Clears     uint64  `json:"clears"`

	WallSec float64 `json:"wall_sec"` // host wall-clock spent on this row (all configs)

	// Metrics is the full memoization-counter snapshot for the memoizing
	// configuration of this row (nil for rows without one). It rides along
	// in the -json report so regressions in cache behaviour are visible
	// without rerunning under -debug-addr.
	Metrics *RowMetrics `json:"metrics,omitempty"`
}

// RowMetrics is the per-row snapshot of the memoizing engine's counters,
// in the same gauge-vs-counter terms the observability layer uses:
// CacheBytes/CacheEntries are point-in-time gauges at end of run,
// everything else is a monotonic counter.
type RowMetrics struct {
	SlowSteps     uint64 `json:"slow_steps"`
	Replays       uint64 `json:"replays"`
	Misses        uint64 `json:"misses"`
	KeyMisses     uint64 `json:"key_misses"`
	CacheBytes    uint64 `json:"cache_bytes"`
	CacheEntries  uint64 `json:"cache_entries"`
	CacheClears   uint64 `json:"cache_clears"`
	Faults        uint64 `json:"faults"`
	Invalidations uint64 `json:"invalidations"`
	DegradedSteps uint64 `json:"degraded_steps"`
}

func metrics(st runcfg.Stats) *RowMetrics {
	return &RowMetrics{
		SlowSteps:     st.SlowSteps,
		Replays:       st.Replays,
		Misses:        st.Misses,
		KeyMisses:     st.KeyMisses,
		CacheBytes:    st.CacheBytes,
		CacheEntries:  st.CacheEntries,
		CacheClears:   st.CacheClears,
		Faults:        st.Faults,
		Invalidations: st.Invalidations,
		DegradedSteps: st.DegradedSteps,
	}
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

// Figure11 reproduces the paper's Figure 11 and Tables 1–2 inputs: the
// hand-coded memoizing simulator (FastSim's role) with and without
// fast-forwarding versus the conventional out-of-order baseline
// (SimpleScalar's role).
func Figure11(cfg Config) ([]Row, error) {
	return figureRows(cfg, runcfg.EngineFastsim)
}

// Table2 reproduces the quantity-of-memoized-data table with an unlimited
// cache (the paper measured total memoized data, not the capped working
// set).
func Table2(cfg Config) ([]Row, error) {
	names := cfg.names()
	rows := make([]Row, len(names))
	err := parsim.ForEach(len(names), cfg.Workers, func(i int) error {
		w, err := workloads.Get(names[i], cfg.Scale)
		if err != nil {
			return err
		}
		res, st, d, err := timedRun(w.Prog, runcfg.Config{
			Engine: runcfg.EngineFastsim, Memoize: true,
		})
		if err != nil {
			return err
		}
		rows[i] = Row{
			Name:       names[i],
			Insts:      res.Insts,
			FastFwdPct: st.FastForwardedPc,
			MemoBytes:  st.TotalMemoBytes,
			Misses:     st.Misses,
			WallSec:    d.Seconds(),
			Metrics:    metrics(st),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure12 reproduces the paper's Figure 12: the Facile-compiled
// out-of-order simulator with and without fast-forwarding versus the
// conventional baseline.
func Figure12(cfg Config) ([]Row, error) {
	return figureRows(cfg, runcfg.EngineFacOOO)
}

// figureRows runs the three-way comparison behind Figures 11 and 12: the
// chosen memoizing engine with and without fast-forwarding versus the
// conventional out-of-order baseline.
// Benchmarks are sharded across cfg.Workers goroutines (parsim.ForEach);
// every deterministic field of a Row is independent of the worker count,
// only the MIPS/WallSec timing fields vary with host load.
func figureRows(cfg Config, engine string) ([]Row, error) {
	names := cfg.names()
	rows := make([]Row, len(names))
	err := parsim.ForEach(len(names), cfg.Workers, func(i int) error {
		name := names[i]
		w, err := workloads.Get(name, cfg.Scale)
		if err != nil {
			return err
		}
		base, _, dBase, err := timedRun(w.Prog, runcfg.Config{Engine: runcfg.EngineOOO})
		if err != nil {
			return err
		}
		plain, _, dPlain, err := timedRun(w.Prog, runcfg.Config{Engine: engine})
		if err != nil {
			return fmt.Errorf("%s (no memo): %w", name, err)
		}
		memo, st, dMemo, err := timedRun(w.Prog, runcfg.Config{
			Engine: engine, Memoize: true, CacheCapBytes: cfg.PaperCapM << 20,
		})
		if err != nil {
			return fmt.Errorf("%s (memo): %w", name, err)
		}
		if plain.Cycles != memo.Cycles {
			return fmt.Errorf("%s: memoized cycle count %d != plain %d (validation failure)",
				name, memo.Cycles, plain.Cycles)
		}
		rows[i] = Row{
			Name:       name,
			Insts:      memo.Insts,
			Cycles:     memo.Cycles,
			MemoMIPS:   mips(memo.Insts, dMemo),
			NoMemoMIPS: mips(plain.Insts, dPlain),
			BaseMIPS:   mips(base.Insts, dBase),
			FastFwdPct: st.FastForwardedPc,
			MemoBytes:  st.TotalMemoBytes,
			Misses:     st.Misses,
			Clears:     st.CacheClears,
			WallSec:    (dBase + dPlain + dMemo).Seconds(),
			Metrics:    metrics(st),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// CapSweepPoint is one point of the cache-capacity ablation (§6.1:
// limiting and clearing the cache costs little performance).
type CapSweepPoint struct {
	CapBytes  uint64  `json:"cap_bytes"`
	MIPS      float64 `json:"mips"`
	Clears    uint64  `json:"clears"`
	PeakBytes uint64  `json:"peak_bytes"`
	Cycles    uint64  `json:"cycles"`
}

// CacheCapSweep reruns one benchmark under shrinking action-cache caps.
func CacheCapSweep(name string, scale int, caps []uint64) ([]CapSweepPoint, error) {
	ucfg := uarch.Default()
	w, err := workloads.Get(name, scale)
	if err != nil {
		return nil, err
	}
	var pts []CapSweepPoint
	for _, cap := range caps {
		s := fastsim.New(ucfg, w.Prog, fastsim.Options{Memoize: true, CacheCapBytes: cap})
		t0 := time.Now()
		res := s.Run(0)
		d := time.Since(t0)
		st := s.Stats()
		pts = append(pts, CapSweepPoint{
			CapBytes:  cap,
			MIPS:      mips(res.Insts, d),
			Clears:    st.CacheClears,
			PeakBytes: st.CacheBytes,
			Cycles:    res.Cycles,
		})
	}
	return pts, nil
}

// LoCReport reproduces the paper's §6.2 code-size comparison: lines of
// Facile per simulator description (the paper: 1,959 Facile + 992 C for
// the out-of-order simulator; 703 Facile functional; 965 Facile in-order).
func LoCReport() map[string]int {
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

// WriteFigure writes a figure's rows in the paper's layout: one bar group
// per benchmark with the three simulators, plus speedup summaries.
func WriteFigure(w io.Writer, title string, rows []Row) {
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

// WriteTable1 writes the percentage-fast-forwarded table.
func WriteTable1(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Table 1: Percentage of instructions fast-forwarded\n")
	fmt.Fprintf(w, "%-14s %12s %10s %10s\n", "benchmark", "insts", "% fastfwd", "misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %9.3f%% %10d\n", r.Name, r.Insts, r.FastFwdPct, r.Misses)
	}
}

// WriteTable2 writes the quantity-of-memoized-data table.
func WriteTable2(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Table 2: Quantity of memoized data\n")
	fmt.Fprintf(w, "%-14s %12s %12s\n", "benchmark", "insts", "MB cached")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %12.2f\n", r.Name, r.Insts, float64(r.MemoBytes)/(1<<20))
	}
}

// WriteCapSweep writes the cache-capacity ablation.
func WriteCapSweep(w io.Writer, name string, pts []CapSweepPoint) {
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

// WriteLoC writes the description-size report.
func WriteLoC(w io.Writer) {
	fmt.Fprintf(w, "Facile description sizes (non-blank, non-comment lines; paper §6.2)\n")
	paper := map[string]string{
		"svr32.fac":   "ISA description (shared)",
		"func.fac":    "functional simulator (paper: 703 lines of Facile)",
		"inorder.fac": "in-order pipeline (paper: 965 lines of Facile + 11 C)",
		"ooo.fac":     "out-of-order simulator (paper: 1,959 lines of Facile + 992 C)",
	}
	for _, name := range []string{"svr32.fac", "func.fac", "inorder.fac", "ooo.fac"} {
		fmt.Fprintf(w, "%-14s %5d lines   %s\n", name, LoCReport()[name], paper[name])
	}
}
