// Command benchmark is this repository's benchmark: five workloads, thirteen
// end-to-end metrics and a per-layer split, measured from outside the
// simulators by timing calls into their public functions. README.md in this
// directory says what each number means; BENCHMARK.json at the repository
// root is the contract the numbers are checked against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to exec as a Go program can see without reading
// /proc: package variables initialise before main, after the runtime and the
// imported packages' own init.
var processStart = time.Now()

// options are the command-line settings of one run.
type options struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Quick     bool
	SetupOnly bool
	Repeat    bool
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 16

func main() {
	var o options
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json; 0 = end-to-end metrics")
	flag.StringVar(&o.Workload, "workload", "", "run this one workload in this process (default: all five, one child process each)")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the generated programs and the job order")
	flag.Float64Var(&o.Seconds, "seconds", defaultSeconds, "measuring time of one workload run")
	flag.BoolVar(&o.Quick, "quick", false, "smoke run at about 1/50 size; numbers mean nothing")
	flag.BoolVar(&o.SetupOnly, "setup-only", false, "set the workload up, print the set-up time in seconds, exit")
	flag.BoolVar(&o.Repeat, "repeat", false, "run the untraced set twice and compare each metric with its bound")
	flag.Parse()
	o.Trace = *trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	// The same runtime settings on every host and both sides of a comparison.
	debug.SetGCPercent(100)
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, o options) int {
	switch {
	case o.Workload != "":
		w, ok := workloadByName(o.Workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.Workload)
			return 2
		}
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		if o.SetupOnly {
			return 0
		}
		res.print(os.Stdout)
		if err := writeJSON(filepath.Join(outDir(), resultFile(w.Name, o.Trace)), res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		// The contract's result line, last on standard output.
		line, _ := json.Marshal(res.contractLine())
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	case o.Repeat:
		return repeatSets(ctx, o)
	default:
		set, ok := runSet(ctx, o)
		name := "results.json"
		if o.Trace {
			name = "results-trace.json"
		}
		if err := writeJSON(filepath.Join(outDir(), name), set); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
}

// outDir is where traces, results and temporary store directories go:
// benchmark/out under the repository root, or out when run from inside the
// benchmark directory. It creates the directory; a failure shows at the
// first write into it.
func outDir() string {
	dir := "out"
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		dir = filepath.Join("benchmark", "out")
	}
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

func resultFile(workload string, traced bool) string {
	if traced {
		return "results-" + workload + "-trace.json"
	}
	return "results-" + workload + ".json"
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runResult is everything one workload run reports.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Digest    string           `json:"digest"`
	Metrics   map[string]value `json:"metrics"`
	Info      []string         `json:"info"` // regime assertions, derived ratios, failures
	order     []metricDef
}

func (r *runResult) put(name string, v float64, n int) {
	for _, m := range r.order {
		if m.Name == name {
			r.Metrics[name] = value{Value: v, Unit: m.Unit, N: n}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table for this kind of run")
}

func (r *runResult) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// print writes one line per metric — workload metric value unit n — then the
// info lines.
func (r *runResult) print(w *os.File) {
	for _, m := range r.order {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%s %s %s %s %d\n", r.Workload, m.Name, strconv.FormatFloat(v.Value, 'f', -1, 64), v.Unit, v.N)
		}
	}
	for _, l := range r.Info {
		fmt.Fprintf(w, "info %s %s\n", r.Workload, l)
	}
	fmt.Fprintf(w, "info %s operations: %d attempted, %d failed; digest %s\n", r.Workload, r.Attempted, r.Failed, r.Digest)
}

// contractLine is the object the driver reads from the last line: exactly
// correct, attempted, failed and metrics, each metric exactly value and unit.
func (r *runResult) contractLine() map[string]any {
	metrics := map[string]any{}
	for name, v := range r.Metrics {
		metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// bench is the state of one workload run.
type bench struct {
	w     workloadDef
	fx    *fixture
	tr    *tracer // nil in an untraced run
	limit uint64  // -quick: progress units per engine run (0 = to completion)
}

// runWorkload sets the workload up, measures it and checks it. An error
// means the run could not be made; a run that was made but produced a wrong
// result comes back with Correct false.
func runWorkload(ctx context.Context, w workloadDef, o options) (res *runResult, err error) {
	minRounds, minJobs, warm := 3, minSamplesFor(95)+20, warmupJobs
	b := &bench{}
	if o.Quick {
		w, minRounds, minJobs, warm = quickened(w), 1, 12, 4
		b.limit = 6000
		o.Seconds = 0
	}
	b.w = w
	var extra []progID
	if o.Trace {
		b.tr = newTracer()
		extra = append(extra, probeProgram)
	}

	// ---- set-up: everything before the first timed call ----
	tmp, err := os.MkdirTemp(outDir(), "tmp-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if b.fx, err = buildFixture(w, o.Seed, b.tr, extra...); err != nil {
		return nil, err
	}
	st := newStream(w.Stream, o.Seed)
	// An untraced run serves through the workload's own front. A traced run
	// serves through both, half the time each, so that every serve.* and
	// fleet.* layer metric exists on every workload.
	var fronts []*front
	defer func() {
		for _, f := range fronts {
			f.stop()
		}
	}()
	for _, fleetMode := range []bool{false, true} {
		if !o.Trace && fleetMode != w.Fleet {
			continue
		}
		f, err := startFront(fleetMode, w.Stream, tmp)
		if err != nil {
			return nil, err
		}
		fronts = append(fronts, f)
		recs, _ := b.untraced().runStream(ctx, f, st, 0, warm, 0)
		for _, rec := range recs {
			if rec.Err != nil {
				return nil, fmt.Errorf("warm-up job %d: %w", rec.Index, rec.Err)
			}
		}
	}
	setupS := time.Since(processStart).Seconds()
	if o.SetupOnly {
		fmt.Println(strconv.FormatFloat(setupS, 'f', -1, 64))
		return nil, nil
	}
	setups := []float64{setupS}
	if !o.Trace && !o.Quick {
		more, err := childSetups(ctx, o, setupRepeats-1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}

	// ---- measurement ----
	order := endToEnd
	if o.Trace {
		order = perLayer
	}
	res = &runResult{Workload: w.Name, Seed: o.Seed, Traced: o.Trace, Metrics: map[string]value{}, order: order}
	budget := time.Duration(o.Seconds * float64(time.Second))
	directBudget := time.Duration(float64(budget) * w.DirectShare)

	d := b.runDirect(ctx, directBudget, minRounds)
	rssAfterDirect := peakRSSMB()
	var served []*servedResult
	for _, f := range fronts {
		share := (budget - directBudget) / time.Duration(len(fronts))
		recs, wall := b.runStream(ctx, f, st, warm, minJobs, share)
		served = append(served, summarize(f, recs, wall))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// ---- correctness ----
	res.Attempted = d.Attempted
	failures := d.Failures
	lines := d.resultLines()
	for i, l := range w.Stream.Lineages {
		lines = append(lines, resultLine("lineage:"+l.Bench, l.Engine, b.fx.lineageRef[i]))
	}
	res.Digest = digest(lines)
	for _, s := range served {
		res.Attempted += s.Attempted
		failures = append(failures, s.Failures...)
	}
	if !o.Quick {
		regimeLines, failed := b.checkRegime(d, served)
		for _, l := range regimeLines {
			res.infof("regime %s", l)
		}
		for _, l := range failed {
			failures = append(failures, "regime: "+l)
		}
		if o.Seed == 1 && res.Digest != w.Golden {
			failures = append(failures, fmt.Sprintf("digest %s differs from the golden %s of seed 1", res.Digest, w.Golden))
		}
	}
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for i, f := range failures {
		if i == 10 {
			res.infof("... %d more failures", len(failures)-10)
			break
		}
		res.infof("FAILED %s", f)
	}

	// ---- metrics ----
	if o.Trace {
		if err := b.layerMetrics(res, d, served, tmp); err != nil {
			return nil, err
		}
		if err := writeChromeTrace(filepath.Join(outDir(), "trace-"+w.Name+".json"), b.tr.snapshot()); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.put("setup_s", median(setups), len(setups))
	for _, c := range configs {
		res.put("ns_per_inst."+c.Name, d.nsPerInst(c.Name), d.Rounds*b.w.Direct[c.Name].Reps)
		res.infof("rounds ns_per_inst.%s: %s", c.Name, formatFloats(d.NsPerInst[c.Name]))
	}
	s := served[0]
	res.put("job_p50_ms", median(s.LatencyMs), len(s.LatencyMs))
	res.put("job_p95_ms", percentile(s.LatencyMs, 95), len(s.LatencyMs))
	res.put("jobs_per_s", float64(s.Jobs)/s.Wall.Seconds(), s.Jobs)
	if hp := highestPercentile(len(s.LatencyMs)); hp < 95 {
		res.infof("only %d jobs: p%g is the highest percentile with ten samples beyond it, job_p95_ms is thin", len(s.LatencyMs), hp)
	}
	res.put("peak_rss_mb", peakRSSMB(), 1)
	res.infof("peak RSS %.1f MB after the direct part, %.1f MB at the end", rssAfterDirect, peakRSSMB())
	ratio := func(num, den string) {
		a, c := res.Metrics["ns_per_inst."+num].Value, res.Metrics["ns_per_inst."+den].Value
		if c > 0 {
			res.infof("ratio %s/%s = %.2f (%.1f ns / %.1f ns per instruction)", num, den, a/c, a, c)
		}
	}
	ratio("ooo", "fastsim")
	ratio("fastsim-nomemo", "fastsim")
	ratio("ooo", "fac-ooo")
	ratio("fac-ooo-nomemo", "fac-ooo")
	res.infof("measured %d rounds of the direct part, %d jobs in %.1f s through %s", d.Rounds, s.Jobs, s.Wall.Seconds(), s.Kind)
	return res, nil
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 2, 64)
	}
	return strings.Join(parts, " ")
}

// untraced is b without its tracer, for work that must not be recorded
// (warm-up) or must be measured bare (the trace-overhead baseline).
func (b *bench) untraced() *bench {
	c := *b
	c.tr = nil
	return &c
}

// peakRSSMB is the process's high-water resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRepeats is how many set-ups stand behind setup_s: this process's own
// and setupRepeats-1 child processes that set up and exit.
const setupRepeats = 3

// childSetups runs n -setup-only children one after another and returns
// their set-up times.
func childSetups(ctx context.Context, o options, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "-setup-only", "-workload", o.Workload, "-seed", strconv.FormatInt(o.Seed, 10))
		cmd.Stderr = os.Stderr
		blob, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(blob)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", blob)
		}
		out = append(out, v)
	}
	return out, nil
}

// quickened shrinks a workload to a smoke test: the first program of each
// pass at scale 1, no repeats.
func quickened(w workloadDef) workloadDef {
	direct := map[string]directPass{}
	for name, p := range w.Direct {
		r := p.Runs[0]
		if r.Prog.Bench != randomBench {
			r.Prog.N = 1
		}
		direct[name] = directPass{Reps: 1, Runs: []directRun{r}}
	}
	w.Direct = direct
	return w
}

// ---- all five workloads, one child process each ----

// setResult is one pass over the five workloads.
type setResult struct {
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Workloads map[string]*runResult `json:"workloads"`
}

// runSet runs every workload in a child process of its own, so that each
// has its own heap, its own peak RSS and its own set-up.
func runSet(ctx context.Context, o options) (*setResult, bool) {
	set := &setResult{Seed: o.Seed, Seconds: o.Seconds, Traced: o.Trace, Workloads: map[string]*runResult{}}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return set, false
	}
	ok := true
	for _, w := range workloadDefs {
		args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.Seed, 10),
			"-seconds", strconv.FormatFloat(o.Seconds, 'f', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[o.Trace]}
		if o.Quick {
			args = append(args, "-quick")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			}
			ok = false
		}
		blob, err := os.ReadFile(filepath.Join(outDir(), resultFile(w.Name, o.Trace)))
		if err != nil {
			ok = false
			continue
		}
		var r runResult
		if err := json.Unmarshal(blob, &r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			ok = false
			continue
		}
		set.Workloads[w.Name] = &r
	}
	return set, ok
}

// repeatSets runs the untraced set twice back to back and compares every
// (workload, end-to-end metric) pair with its bound: the evidence for the
// bounds in BENCHMARK.json.
func repeatSets(ctx context.Context, o options) int {
	o.Trace = false
	first, ok1 := runSet(ctx, o)
	second, ok2 := runSet(ctx, o)
	_ = writeJSON(filepath.Join(outDir(), "results.json"), second)
	code := 0
	if !ok1 || !ok2 {
		code = 1
	}
	fmt.Printf("%-8s %-28s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloadDefs {
		a, b := first.Workloads[w.Name], second.Workloads[w.Name]
		if a == nil || b == nil {
			continue
		}
		if a.Digest != b.Digest {
			fmt.Printf("%-8s digest differs: %s, then %s\n", w.Name, a.Digest, b.Digest)
			code = 1
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := relDiff(va, vb)
			verdict := ""
			if diff > m.Bound || diff < -m.Bound {
				verdict = "  OUTSIDE BOUND"
				code = 1
			}
			fmt.Printf("%-8s %-28s %14.4f %14.4f %+7.2f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
