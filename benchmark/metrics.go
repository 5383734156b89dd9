package main

// The metric tables. BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds; manifest_test.go keeps the two equal.

// metricDef names one metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// config is one of the eight measured engine configurations.
type config struct {
	Name    string // metric suffix, e.g. "fastsim-nomemo"
	Engine  string // runcfg engine name
	Memoize bool
	Layer   string // per-layer metric prefix of the memoizing four, "" otherwise
}

var configs = []config{
	{"func", "func", false, ""},
	{"ooo", "ooo", false, ""},
	{"fastsim", "fastsim", true, "fastsim"},
	{"fastsim-nomemo", "fastsim", false, ""},
	{"fac-func", "fac-func", true, "rt.fac-func"},
	{"fac-inorder", "fac-inorder", true, "rt.fac-inorder"},
	{"fac-ooo", "fac-ooo", true, "rt.fac-ooo"},
	{"fac-ooo-nomemo", "fac-ooo", false, ""},
}

// memoConfigs are the four configurations that build an action cache.
func memoConfigs() []config {
	var out []config
	for _, c := range configs {
		if c.Layer != "" {
			out = append(out, c)
		}
	}
	return out
}

// Bounds: the share of the parent's median by which a metric may worsen
// before a change is rejected. README "Bounds" has the measured spreads they
// rest on. The sandbox's neighbours disturb every engine that leans on the
// cache (quartile spreads of 3-12 % over ten seeds, whole runs 30 % slow now
// and then), so every timing except the functional model's sits at the
// contract's cap of a quarter.
const (
	boundFunc   = 0.10 // ns_per_inst.func: small footprint, spread 1-3 %
	boundTiming = 0.25 // every other ns_per_inst, the job latencies and rate
	boundRSS    = 0.20
	boundSetup  = 0.25
)

// endToEnd lists the thirteen end-to-end metrics in report order.
var endToEnd = func() []metricDef {
	out := []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: boundSetup}}
	for _, c := range configs {
		bound := boundTiming
		if c.Name == "func" {
			bound = boundFunc
		}
		out = append(out, metricDef{Name: "ns_per_inst." + c.Name, Unit: "ns", Better: "lower", Bound: bound})
	}
	return append(out,
		metricDef{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: boundRSS},
		metricDef{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: boundTiming},
		metricDef{Name: "job_p95_ms", Unit: "ms", Better: "lower", Bound: boundTiming},
		metricDef{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: boundTiming},
	)
}()

// engineLayerMetrics are the per-layer metrics every memoizing engine
// reports, as "<layer>.<name>".
var engineLayerMetrics = []metricDef{
	{Name: "replay_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "slow_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "record_ns_per_slow_step", Unit: "ns", Better: "lower"},
	{Name: "build_ms", Unit: "ms", Better: "lower"},
	{Name: "memo_bytes_per_slow_step", Unit: "B", Better: "lower"},
	{Name: "cache_bytes_peak", Unit: "B", Better: "lower"},
	{Name: "cache_clears", Unit: "count", Better: "lower"},
	{Name: "slow_steps", Unit: "count", Better: "lower"},
	{Name: "replays", Unit: "count", Better: "higher"},
	{Name: "misses", Unit: "count", Better: "lower"},
	{Name: "key_misses", Unit: "count", Better: "lower"},
	{Name: "fastfwd_pct", Unit: "%", Better: "higher"},
	{Name: "alloc_bytes_per_inst", Unit: "B", Better: "lower"},
}

// perLayer lists every per-layer metric in report order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, c := range memoConfigs() {
		for _, m := range engineLayerMetrics {
			m.Name = c.Layer + "." + m.Name
			out = append(out, m)
		}
	}
	lower := func(name, unit string) { out = append(out, metricDef{Name: name, Unit: unit, Better: "lower"}) }
	higher := func(name, unit string) { out = append(out, metricDef{Name: name, Unit: unit, Better: "higher"}) }
	lower("ooo.alloc_bytes_per_inst", "B")
	lower("funcsim.alloc_bytes_per_inst", "B")
	lower("asm.assemble_ms", "ms")
	lower("lang.compile_ms.func", "ms")
	lower("lang.compile_ms.inorder", "ms")
	lower("lang.compile_ms.ooo", "ms")
	lower("lang.vet_preflight_ms", "ms")
	lower("funcsim.reference_s", "s")
	lower("serve.submit_ms", "ms")
	lower("serve.queue_wait_p50_ms", "ms")
	lower("serve.queue_wait_p95_ms", "ms")
	lower("serve.run_p50_ms", "ms")
	lower("serve.run_p95_ms", "ms")
	lower("serve.notify_ms", "ms")
	lower("serve.first_event_ms", "ms")
	lower("serve.job_p99_ms", "ms")
	higher("serve.warm_share.memory", "%")
	lower("serve.warm_share.store", "%")
	lower("serve.warm_share.cold", "%")
	lower("serve.run_ms.memory", "ms")
	lower("serve.run_ms.store", "ms")
	lower("serve.run_ms.cold", "ms")
	lower("runcfg.warm_encode_ms", "ms")
	lower("runcfg.warm_decode_ms", "ms")
	lower("cachestore.save_ms", "ms")
	lower("cachestore.load_ms", "ms")
	lower("cachestore.record_kb", "KB")
	lower("runcfg.detach_adopt_us", "us")
	lower("fleet.submit_ms", "ms")
	lower("fleet.hop_ms", "ms")
	lower("fleet.placement_skew", "ratio")
	higher("fleet.warm_hit_pct", "%")
	lower("trace_overhead_pct", "%")
	return out
}()

// value is one reported measurement; N is how many samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}
