package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"facile/internal/runcfg"
)

// Chunk sizes, in Runner progress units (instructions; Facile steps for the
// fac-* engines).
const (
	traceChunk  = 65536 // a traced run issues Run in chunks of this size, one span each
	prefixChunk = 4096  // granularity of the untimed warm-up prefix
)

// counters is the part of runcfg.Stats that accumulates, as a delta over a
// timed window, plus the window's wall time and instructions.
type counters struct {
	Wall      time.Duration
	Insts     uint64
	Slow      uint64
	Replays   uint64
	Misses    uint64
	KeyMisses uint64
	Clears    uint64
	MemoBytes uint64
	PeakCache uint64 // largest CacheBytes seen at a chunk or run end
	Alloc     uint64 // Go heap bytes allocated in the window (traced runs only)
}

func (c *counters) add(o counters) {
	c.Wall += o.Wall
	c.Insts += o.Insts
	c.Slow += o.Slow
	c.Replays += o.Replays
	c.Misses += o.Misses
	c.KeyMisses += o.KeyMisses
	c.Clears += o.Clears
	c.MemoBytes += o.MemoBytes
	c.Alloc += o.Alloc
	if o.PeakCache > c.PeakCache {
		c.PeakCache = o.PeakCache
	}
}

// fastFwdPct is the replayed share of steps, in percent.
func (c counters) fastFwdPct() float64 {
	if c.Slow+c.Replays == 0 {
		return 0
	}
	return 100 * float64(c.Replays) / float64(c.Slow+c.Replays)
}

func (c counters) nsPerInst() float64 {
	if c.Insts == 0 {
		return 0
	}
	return float64(c.Wall.Nanoseconds()) / float64(c.Insts)
}

func statsDelta(a, b runcfg.Stats) counters {
	return counters{
		Slow: b.SlowSteps - a.SlowSteps, Replays: b.Replays - a.Replays,
		Misses: b.Misses - a.Misses, KeyMisses: b.KeyMisses - a.KeyMisses,
		Clears: b.CacheClears - a.CacheClears, MemoBytes: b.TotalMemoBytes - a.TotalMemoBytes,
		PeakCache: b.CacheBytes,
	}
}

// runOutcome is one finished engine run: its timed window and its result.
type runOutcome struct {
	Prog   progID
	Cap    uint64
	Win    counters
	Build  time.Duration // wall of runcfg.New
	Result runcfg.Result
	Done   bool
}

// engineRun makes one run of the direct part. With the workload's Prefix at
// zero the timed window is the whole run, runcfg.New included; otherwise a
// fresh runner first advances untimed until Prefix of the program's
// instructions have committed, and the window is the rest.
func (b *bench) engineRun(c config, dr directRun, id string, parent int) (runOutcome, error) {
	p := b.fx.programs[dr.Prog]
	out := runOutcome{Prog: dr.Prog, Cap: dr.Cap}
	root := b.tr.begin("benchmark.run", id, parent, 0)
	defer func() { b.tr.end(root, nil) }()

	var m0, m1 runtime.MemStats
	if b.tr != nil && b.w.Prefix == 0 {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	sp := b.tr.begin("runcfg.New", id, root, 0)
	r, err := runcfg.New(p.Prog, runcfg.Config{Engine: c.Engine, Memoize: c.Memoize, CacheCapBytes: dr.Cap})
	b.tr.end(sp, nil)
	if err != nil {
		return out, err
	}
	out.Build = time.Since(t0)

	var base runcfg.Stats
	var baseInsts uint64
	if b.w.Prefix > 0 {
		sp := b.tr.begin("benchmark.prefix", id, root, 0)
		want := uint64(b.w.Prefix * float64(p.Ref.Insts))
		for !r.Done() && r.Result().Insts < want {
			if err := r.Run(r.Progress() + prefixChunk); err != nil {
				return out, err
			}
		}
		b.tr.end(sp, nil)
		base, baseInsts = r.Stats(), r.Result().Insts
		if b.tr != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 = time.Now()
	}

	peak, err := b.drive(r, id, root)
	if err != nil {
		return out, err
	}
	out.Win = statsDelta(base, r.Stats())
	out.Win.Wall = time.Since(t0)
	if b.tr != nil {
		runtime.ReadMemStats(&m1)
		out.Win.Alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	out.Result, out.Done = r.Result(), r.Done()
	out.Win.Insts = out.Result.Insts - baseInsts
	if peak > out.Win.PeakCache {
		out.Win.PeakCache = peak
	}
	if out.Done {
		if err := checkAgainstRef(out.Result, p.Ref); err != nil {
			return out, err
		}
	}
	return out, nil
}

// drive runs r to completion (for b.limit more progress units in -quick mode). An
// untraced run is one Run call; a traced run issues Run in traceChunk units,
// one span per chunk with the Stats delta attached, and reports the largest
// cache occupancy seen between chunks.
func (b *bench) drive(r runcfg.Runner, id string, parent int) (peak uint64, err error) {
	stop := uint64(0) // 0 = run to completion
	if b.limit > 0 {
		stop = r.Progress() + b.limit
	}
	if b.tr == nil {
		return 0, r.Run(stop)
	}
	for !r.Done() && (stop == 0 || r.Progress() < stop) {
		target := r.Progress() + traceChunk
		if stop != 0 && target > stop {
			target = stop
		}
		s0 := r.Stats()
		sp := b.tr.begin("runcfg.Run", id, parent, 0)
		err := r.Run(target)
		s1 := r.Stats()
		d := statsDelta(s0, s1)
		b.tr.end(sp, map[string]float64{"slow_steps": float64(d.Slow), "replays": float64(d.Replays),
			"misses": float64(d.Misses), "cache_clears": float64(d.Clears), "cache_bytes": float64(s1.CacheBytes)})
		if err != nil {
			return peak, err
		}
		if s1.CacheBytes > peak {
			peak = s1.CacheBytes
		}
	}
	return peak, nil
}

// directResult is what the direct part measured.
type directResult struct {
	Rounds    int
	NsPerInst map[string][]float64 // per configuration, one value per round
	// Walls and Insts hold, per configuration and per run of its pass, every
	// timed wall measured (Reps per round) and the instructions of the
	// window (the same every time): see nsPerInst.
	Walls   map[string][][]float64
	Insts   map[string][]uint64
	BuildMs map[string][]float64 // per configuration, one value per run
	// Totals are the summed timed-window counters of one pass; they are
	// exact, so the last round's stand for all.
	Totals map[string]counters
	// First is every run of the first round, for the digest, the
	// memoizing-equals-non-memoizing check and the capped regime.
	First map[string][]runOutcome
	// BareNsPerInst is overheadConfig driven untraced inside a traced run.
	BareNsPerInst []float64

	Attempted int
	Failures  []string
}

func (d *directResult) fail(format string, args ...any) {
	d.Failures = append(d.Failures, fmt.Sprintf(format, args...))
}

// runDirect measures the direct part: rounds of one pass per configuration,
// round-robin so that drift in the host spreads evenly over the eight, until
// budget is used (to the nearest round) and at least minRounds are done.
func (b *bench) runDirect(ctx context.Context, budget time.Duration, minRounds int) *directResult {
	d := &directResult{
		NsPerInst: map[string][]float64{}, BuildMs: map[string][]float64{},
		Walls: map[string][][]float64{}, Insts: map[string][]uint64{},
		Totals: map[string]counters{}, First: map[string][]runOutcome{},
	}
	phase := b.tr.begin("benchmark.direct", b.w.Name, -1, 0)
	defer func() { b.tr.end(phase, nil) }()
	start := time.Now()
	for round := 0; ctx.Err() == nil; round++ {
		if elapsed := time.Since(start); round >= minRounds && elapsed+elapsed/time.Duration(2*round) > budget {
			break
		}
		for _, c := range configs {
			tot := b.pass(c, round, phase, d, true)
			d.NsPerInst[c.Name] = append(d.NsPerInst[c.Name], tot.nsPerInst())
			d.Totals[c.Name] = tot
			if b.tr != nil && c.Name == overheadConfig {
				// The same pass driven bare, for trace_overhead_pct.
				bare := b.untraced().pass(c, round, -1, d, false)
				d.BareNsPerInst = append(d.BareNsPerInst, bare.nsPerInst())
			}
		}
		d.Rounds++
	}
	b.checkMemoPairs(d)
	return d
}

// nsPerInst is configuration c's host nanoseconds per simulated instruction:
// each run of the pass contributes the median of its timed walls over all
// rounds and repeats, and the sum is divided by the instructions of the runs.
// Taking the median per run, not per pass, means a burst of host noise spoils
// one program's sample instead of that round's whole pass.
func (d *directResult) nsPerInst(c string) float64 {
	var wall float64
	var insts uint64
	for pos, w := range d.Walls[c] {
		wall += median(w)
		insts += d.Insts[c][pos]
	}
	if insts == 0 {
		return 0
	}
	return wall / float64(insts)
}

// overheadConfig is the configuration whose traced and bare passes give
// trace_overhead_pct: the fastest memoizing one, where a chunk boundary costs
// the most relative to the work between boundaries.
const overheadConfig = "fastsim"

// pass runs one pass of configuration c and returns its summed timed
// windows. With record set, results are checked into d (first-round results
// for the digest, later rounds against the first).
func (b *bench) pass(c config, round, parent int, d *directResult, record bool) counters {
	p := b.w.Direct[c.Name]
	runtime.GC()
	var tot counters
	for rep := 0; rep < p.Reps; rep++ {
		for i, dr := range p.Runs {
			id := fmt.Sprintf("%s/r%d/%s/%s", b.w.Name, round, c.Name, dr.Prog)
			out, err := b.engineRun(c, dr, id, parent)
			d.Attempted++
			if err != nil {
				d.fail("%s: %v", id, err)
				continue
			}
			tot.add(out.Win)
			if !record {
				continue
			}
			if i == len(d.Walls[c.Name]) {
				d.Walls[c.Name] = append(d.Walls[c.Name], nil)
				d.Insts[c.Name] = append(d.Insts[c.Name], out.Win.Insts)
			}
			d.Walls[c.Name][i] = append(d.Walls[c.Name][i], float64(out.Win.Wall.Nanoseconds()))
			d.BuildMs[c.Name] = append(d.BuildMs[c.Name], ms(out.Build))
			if rep > 0 {
				continue
			}
			if round == 0 {
				d.First[c.Name] = append(d.First[c.Name], out)
			} else if f := d.First[c.Name]; i < len(f) && (f[i].Result.Cycles != out.Result.Cycles || f[i].Result.Insts != out.Result.Insts) {
				d.fail("%s: result changed between rounds", id)
			}
		}
	}
	return tot
}

// checkMemoPairs enforces the paper's invariant wherever the same program ran
// under a memoizing configuration and its non-memoizing twin: cycle counts
// must be identical.
func (b *bench) checkMemoPairs(d *directResult) {
	for _, pair := range [][2]string{{"fastsim", "fastsim-nomemo"}, {"fac-ooo", "fac-ooo-nomemo"}} {
		slow := map[progID]uint64{}
		for _, o := range d.First[pair[1]] {
			if o.Done {
				slow[o.Prog] = o.Result.Cycles
			}
		}
		for _, o := range d.First[pair[0]] {
			if want, ok := slow[o.Prog]; ok && o.Done && o.Result.Cycles != want {
				d.fail("%s %s: %d cycles memoizing, %d without", pair[0], o.Prog, o.Result.Cycles, want)
			}
		}
	}
}

// resultLines renders every first-round result for the digest.
func (d *directResult) resultLines() []string {
	var lines []string
	for _, c := range configs {
		for _, o := range d.First[c.Name] {
			lines = append(lines, resultLine(o.Prog.String(), c.Name, o.Result))
		}
	}
	return lines
}

func resultLine(prog, cfg string, r runcfg.Result) string {
	sum := sha256.Sum256(r.Output)
	return fmt.Sprintf("%s|%s|%d|%d|%d|%x", prog, cfg, r.Insts, r.Cycles, r.Exit, sum[:6])
}

// checkRegime verifies the workload's operating point on the exact counters
// and returns one printable line per assertion and the failed ones.
func (b *bench) checkRegime(d *directResult, served []*servedResult) (lines, failed []string) {
	note := func(ok bool, format string, args ...any) {
		l := fmt.Sprintf(format, args...)
		if ok {
			lines = append(lines, "ok   "+l)
		} else {
			lines = append(lines, "FAIL "+l)
			failed = append(failed, l)
		}
	}
	for _, c := range memoConfigs() {
		ff := d.Totals[c.Name].fastFwdPct()
		if min, ok := b.w.Regime.MinFastFwdPct[c.Name]; ok {
			note(ff >= min, "%s timed-window fastfwd_pct %.3f >= %.1f", c.Name, ff, min)
		}
		if max, ok := b.w.Regime.MaxFastFwdPct[c.Name]; ok {
			note(ff <= max, "%s fastfwd_pct %.2f <= %.0f", c.Name, ff, max)
		}
		if !b.w.Regime.Capped {
			continue
		}
		for _, o := range d.First[c.Name] {
			if o.Cap == 0 {
				continue
			}
			ff := o.Win.fastFwdPct()
			note(o.Win.Clears >= 20 && ff >= 85 && ff <= 99.7,
				"%s %s cap %d: cache_clears %d >= 20, 85 <= fastfwd_pct %.2f <= 99.7", c.Name, o.Prog, o.Cap, o.Win.Clears, ff)
		}
	}
	if lo, hi := b.w.Regime.StoreShare[0], b.w.Regime.StoreShare[1]; hi > 0 {
		for _, s := range served {
			if s.Kind == "serve" {
				note(s.StorePct >= lo && s.StorePct <= hi, "%.0f <= serve warm_share.store %.1f <= %.0f", lo, s.StorePct, hi)
			}
		}
	}
	return lines, failed
}
