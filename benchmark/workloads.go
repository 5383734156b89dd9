package main

import "fmt"

// Every size in this file is a frozen literal. They were tuned once on the
// 2-core sandbox so that one round of the direct part (one pass of each of
// the eight configurations) takes about 2.5 s, and are never scaled at run
// time: simulated statistics and the work in a pass are the same on both
// sides of every later comparison. -seconds only decides how many rounds and
// how many jobs a run measures.

// progID names one program: a suite benchmark at a scale ("126.gcc", 4), or
// generated program number N of the run's seed ("random", N).
type progID struct {
	Bench string
	N     int
}

const randomBench = "random"

func (p progID) String() string {
	if p.Bench == randomBench {
		return fmt.Sprintf("random#%d", p.N)
	}
	return fmt.Sprintf("%s@%d", p.Bench, p.N)
}

// Generated programs: workloads.Random(seed*7919+N, randomBodyOps, randomIters),
// about 3.5 k static instructions executed three times.
const (
	randomBodyOps = 2000
	randomIters   = 3
)

// directRun is one engine run of the direct part: a program, and for the
// capped workload the action-cache cap of that (program, configuration) pair.
type directRun struct {
	Prog progID
	Cap  uint64
}

// directPass is what one pass of one configuration runs: the list, Reps
// times over (Reps keeps the pass of a fast configuration above ~0.15 s).
type directPass struct {
	Reps int
	Runs []directRun
}

// lineage is one cache lineage of a job stream: a suite program at scale 1
// under a memoizing engine, Weight jobs in every block of Σ Weight.
type lineage struct {
	Bench  string
	Engine string
	Weight int
	Cap    uint64 // CacheCapBytes of the lineage's jobs (0 = unlimited)
}

// streamSpec describes a workload's served part.
type streamSpec struct {
	Lineages []lineage
	// FlushEvery makes the driver call FlushWarm on every worker after each
	// FlushEvery completed jobs (0 = never).
	FlushEvery int
	// Store gives each worker a cachestore directory, so parked caches are
	// saved on every park and reloaded after a flush.
	Store bool
	// Fresh gives every job a lineage of its own (see freshCap), so every
	// job starts cold.
	Fresh bool
}

// freshCap is the CacheCapBytes of job i in a Fresh stream: a cap that can
// never bind (1 TiB and up), different for every job. The cap is part of the
// lineage key, so no job finds a warm cache; nothing else about the run
// changes.
func freshCap(i int) uint64 { return 1<<40 + uint64(i) }

// regime is the operating point a workload must stay in for its numbers to
// mean what the README says; checked on exact counters after every run.
type regime struct {
	// MinFastFwdPct / MaxFastFwdPct bound the replayed share of steps in the
	// timed windows of the named configurations (summed over programs).
	MinFastFwdPct map[string]float64
	MaxFastFwdPct map[string]float64
	// Capped asserts, for every run with a cap, cache_clears >= 20 and
	// 85 <= fastfwd_pct <= 99.7.
	Capped bool
	// StoreShare bounds the share of timed jobs that loaded their cache from
	// the store, in percent (zero = unchecked).
	StoreShare [2]float64
}

// workloadDef is one benchmark workload: a direct part (engine runs timed
// around Runner.Run) and a served part (a closed-loop job stream).
type workloadDef struct {
	Name string
	Why  string
	// DirectShare is the share of -seconds the direct part may use; the
	// served part gets the rest.
	DirectShare float64
	// Prefix is the untimed share of each run's instructions that warms the
	// action cache before the timed window opens (0 = the whole run is
	// timed, runcfg.New included).
	Prefix float64
	Direct map[string]directPass // by configuration name
	Stream streamSpec
	Fleet  bool // served part goes through a router and two workers
	Regime regime
	Golden string // digest of every result at seed 1 (golden.go)
}

func suite(scale int, names ...string) []directRun {
	var out []directRun
	for _, n := range names {
		out = append(out, directRun{Prog: progID{n, scale}})
	}
	return out
}

func random(n int) []directRun {
	var out []directRun
	for i := 0; i < n; i++ {
		out = append(out, directRun{Prog: progID{randomBench, i}})
	}
	return out
}

func capped(scale int, pairs ...any) []directRun {
	var out []directRun
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, directRun{Prog: progID{pairs[i].(string), scale}, Cap: uint64(pairs[i+1].(int))})
	}
	return out
}

// The job mix of the issue: four programs under three memoizing engines,
// twelve lineages in blocks of twenty jobs, fastsim 60 %, fac-inorder 20 %,
// fac-ooo 20 %.
var streamPrograms = []string{"126.gcc", "129.compress", "102.swim", "145.fpppp"}

func mixLineages(capOf func(bench, engine string) uint64) []lineage {
	var out []lineage
	for _, e := range []struct {
		engine string
		weight int
	}{{"fastsim", 3}, {"fac-inorder", 1}, {"fac-ooo", 1}} {
		for _, b := range streamPrograms {
			l := lineage{Bench: b, Engine: e.engine, Weight: e.weight}
			if capOf != nil {
				l.Cap = capOf(b, e.engine)
			}
			out = append(out, l)
		}
	}
	return out
}

// servedCaps are the caps of the capped workload's served part, chosen per
// lineage from a scan at scale 1: low enough that a job clears its cache 2-14
// times, high enough above the lineage's cliff that it still replays over
// 90 % of its steps (a lineage on the wrong side of its cliff runs ten times
// longer and would own job_p95_ms). 145.fpppp's giant block thrashes under
// any cap below its peak on fac-inorder, so that one sits at its peak.
var servedCaps = map[string]uint64{
	"126.gcc/fastsim": 188 << 10, "129.compress/fastsim": 24 << 10, "102.swim/fastsim": 60 << 10, "145.fpppp/fastsim": 128 << 10,
	"126.gcc/fac-inorder": 84 << 10, "129.compress/fac-inorder": 24 << 10, "102.swim/fac-inorder": 25 << 10, "145.fpppp/fac-inorder": 226 << 10,
	"126.gcc/fac-ooo": 468 << 10, "129.compress/fac-ooo": 71 << 10, "102.swim/fac-ooo": 164 << 10, "145.fpppp/fac-ooo": 277 << 10,
}

var steadyPrograms = []string{"099.go", "126.gcc", "147.vortex", "102.swim", "107.mgrid", "145.fpppp"}

var workloadDefs = []workloadDef{
	{
		Name:        "steady",
		Why:         "long suite programs, warm unlimited cache: >99.9% of steps replay, so replay dispatch does nearly all the work",
		DirectShare: 0.6,
		Prefix:      0.10,
		Direct: map[string]directPass{
			"func":           {1, suite(12, steadyPrograms...)},
			"ooo":            {1, suite(1, steadyPrograms...)},
			"fastsim":        {1, suite(12, steadyPrograms...)},
			"fastsim-nomemo": {1, suite(2, steadyPrograms...)},
			"fac-func":       {1, suite(4, steadyPrograms...)},
			"fac-inorder":    {1, suite(2, steadyPrograms...)},
			"fac-ooo":        {1, suite(2, steadyPrograms...)},
			// A Facile OOO slow step costs 5-70 µs per instruction, so the
			// non-memoizing run is one branchy and one fp program at scale 1.
			"fac-ooo-nomemo": {1, suite(1, "147.vortex", "146.wave5")},
		},
		// Served part: the twelve lineages, never flushed, so after warm-up
		// every job adopts a parked cache from memory.
		Stream: streamSpec{Lineages: mixLineages(nil), Store: true},
		Regime: regime{MinFastFwdPct: map[string]float64{"fastsim": 99.9, "fac-func": 99.9, "fac-inorder": 99.9, "fac-ooo": 99.9}},
		Golden: goldenSteady,
	},
	{
		Name:        "cold",
		Why:         "new generated programs on empty caches: 8-14% of steps replay on the OOO engines, so slow step, record, key build and machine build do the work",
		DirectShare: 0.6,
		Direct: map[string]directPass{
			"func":           {4, random(64)},
			"ooo":            {1, random(64)},
			"fastsim":        {1, random(32)},
			"fastsim-nomemo": {1, random(64)},
			"fac-func":       {1, random(24)},
			"fac-inorder":    {1, random(16)},
			"fac-ooo":        {1, random(4)},
			"fac-ooo-nomemo": {1, random(4)},
		},
		// Served part: every job is its own lineage, so none starts warm. No
		// store, and a flush every 10 jobs keeps the parked caches (one per
		// job, never adopted) from piling up in memory.
		Stream: streamSpec{Lineages: mixLineages(nil), FlushEvery: 10, Fresh: true},
		Regime: regime{MaxFastFwdPct: map[string]float64{"fastsim": 20, "fac-ooo": 20}},
		Golden: goldenCold,
	},
	{
		Name:        "capped",
		Why:         "action cache capped on the shoulder of the cliff: clear-when-full fires 20-220 times a run while 85-99.7% of steps still replay",
		DirectShare: 0.6,
		Direct: map[string]directPass{
			"func":           {3, suite(4, "099.go", "132.ijpeg", "107.mgrid", "103.su2cor")},
			"ooo":            {1, suite(2, "099.go", "132.ijpeg", "107.mgrid", "103.su2cor")},
			"fastsim":        {2, capped(4, "099.go", 195584, "132.ijpeg", 184320, "107.mgrid", 33792, "103.su2cor", 47104)},
			"fastsim-nomemo": {1, suite(2, "099.go", "132.ijpeg", "107.mgrid", "103.su2cor")},
			"fac-func":       {1, capped(4, "099.go", 49152, "132.ijpeg", 32768, "107.mgrid", 14336, "103.su2cor", 16384)},
			"fac-inorder":    {1, capped(2, "099.go", 59392, "132.ijpeg", 36864, "107.mgrid", 17408, "103.su2cor", 19456)},
			"fac-ooo":        {1, capped(2, "099.go", 418816, "107.mgrid", 87040, "103.su2cor", 148480)},
			"fac-ooo-nomemo": {1, suite(1, "103.su2cor")},
		},
		// Served part: the twelve lineages capped (servedCaps), so jobs clear
		// while running and park capped caches.
		Stream: streamSpec{Lineages: mixLineages(func(b, e string) uint64 { return servedCaps[b+"/"+e] }), Store: true},
		Regime: regime{Capped: true},
		Golden: goldenCapped,
	},
	{
		Name:        "serve",
		Why:         "2-30 ms jobs through one saturated worker, a flush every 100 jobs: queue wait, warm adopt, encode+save on every park, store load and NDJSON are a large share",
		DirectShare: 0.3,
		// Direct part: the stream's own programs at scale 1, each run cold
		// and whole — the service-time floor a job would cost without the
		// server around it.
		Direct: serveDirect,
		Stream: streamSpec{Lineages: mixLineages(nil), FlushEvery: 100, Store: true},
		Regime: regime{StoreShare: [2]float64{5, 20}},
		Golden: goldenServe,
	},
	{
		Name:        "fleet",
		Why:         "the same job stream through the router and two workers: adds the hop, lineage placement and event-stream proxying",
		DirectShare: 0.3,
		Direct:      serveDirect,
		Stream:      streamSpec{Lineages: mixLineages(nil), FlushEvery: 100, Store: true},
		Fleet:       true,
		Golden:      goldenFleet,
	},
}

var serveDirect = map[string]directPass{
	"func":           {20, suite(1, streamPrograms...)},
	"ooo":            {4, suite(1, streamPrograms...)},
	"fastsim":        {16, suite(1, streamPrograms...)},
	"fastsim-nomemo": {5, suite(1, streamPrograms...)},
	"fac-func":       {8, suite(1, streamPrograms...)},
	"fac-inorder":    {5, suite(1, streamPrograms...)},
	"fac-ooo":        {2, suite(1, streamPrograms...)},
	"fac-ooo-nomemo": {1, suite(1, "129.compress")},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Served-part constants.
const (
	clients    = 2  // closed-loop clients: each submits, waits for the terminal line, submits again
	warmupJobs = 60 // untimed jobs before the timed phase, part of set-up
	queueDepth = 64
)
