package bench

// Warm-restart benchmark: the canonical measurement of what the
// persistent action-cache store buys. One workload is run cold, its cache
// is saved through a real cachestore (CRC framing, fsync+rename), a fresh
// engine adopts the reloaded copy — the situation after an fsimd restart —
// and the warm run is timed against the cold one. The store's win is the
// specialization cost the warm run never pays.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"facile/internal/cachestore"
	"facile/internal/runcfg"
	"facile/internal/workloads"
)

// WarmRestartRecord is one workload's cold-vs-warm-restart comparison.
// Cold and warm runs are validated to produce identical cycle counts; the
// MIPS/latency fields carry the performance story.
type WarmRestartRecord struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`

	ColdMIPS float64 `json:"cold_mips"` // first-ever run: records everything
	WarmMIPS float64 `json:"warm_mips"` // restart run: adopts the stored cache
	Speedup  float64 `json:"speedup"`   // WarmMIPS / ColdMIPS

	ColdFastFwdPct float64 `json:"cold_fastfwd_pct"`
	WarmFastFwdPct float64 `json:"warm_fastfwd_pct"`

	CacheEntries uint64  `json:"cache_entries"` // adopted cache size
	CacheBytes   uint64  `json:"cache_bytes"`
	RecordBytes  int64   `json:"record_bytes"` // on-disk store record size
	SaveMs       float64 `json:"save_ms"`      // store round-trip latencies
	LoadMs       float64 `json:"load_ms"`
}

// warmRestartReps is how many times each timed configuration runs; the
// minimum wall time is reported.
const warmRestartReps = 3

// WarmRestart measures one workload's warm-vs-cold-restart comparison
// through a throwaway on-disk store. The warm run exercises the lazy
// rebuild-after-adoption path of the fused replay state.
func WarmRestart(name string, scale int, engine string) (WarmRestartRecord, error) {
	w, err := workloads.Get(name, scale)
	if err != nil {
		return WarmRestartRecord{}, err
	}
	cfg := runcfg.Config{Engine: engine, Memoize: true}

	// Each configuration is timed warmRestartReps times and the minimum is
	// reported: the runs are deterministic, so the best observation is the
	// one least polluted by scheduler and GC noise.
	var cold runcfg.Runner
	var dCold time.Duration
	for rep := 0; rep < warmRestartReps; rep++ {
		r, err := runcfg.New(w.Prog, cfg)
		if err != nil {
			return WarmRestartRecord{}, err
		}
		t0 := time.Now()
		if err := r.Run(0); err != nil {
			return WarmRestartRecord{}, err
		}
		if d := time.Since(t0); rep == 0 || d < dCold {
			dCold = d
		}
		cold = r
	}
	coldRes, coldStats := cold.Result(), cold.Stats()

	wc := cold.DetachCache()
	if wc == nil || wc.Entries() == 0 {
		return WarmRestartRecord{}, fmt.Errorf("bench: %s/%s built no detachable cache", name, engine)
	}
	entries, cacheBytes := wc.Entries(), wc.Bytes()
	payload, err := runcfg.EncodeWarmCache(wc)
	if err != nil {
		return WarmRestartRecord{}, err
	}

	// Round-trip through a real store: same framing, fsync, and verification
	// a restarted fsimd would go through.
	dir, err := os.MkdirTemp("", "facile-warmbench-*")
	if err != nil {
		return WarmRestartRecord{}, err
	}
	defer os.RemoveAll(dir)
	st, err := cachestore.Open(dir, cachestore.Options{})
	if err != nil {
		return WarmRestartRecord{}, err
	}
	key := fmt.Sprintf("bench-%s-s%d", name, scale)
	fp := runcfg.CacheFingerprint(engine)
	tSave := time.Now()
	if err := st.Save(key, engine, fp, entries, cacheBytes, payload); err != nil {
		return WarmRestartRecord{}, err
	}
	dSave := time.Since(tSave)
	tLoad := time.Now()
	meta, stored, err := st.Load(key)
	if err != nil {
		return WarmRestartRecord{}, err
	}
	dLoad := time.Since(tLoad)

	// Warm: the run a restarted process pays with the store in place. Each
	// repetition decodes a fresh copy — adoption consumes the cache.
	var warm runcfg.Runner
	var dWarm time.Duration
	for rep := 0; rep < warmRestartReps; rep++ {
		loaded, err := runcfg.DecodeWarmCache(stored)
		if err != nil {
			return WarmRestartRecord{}, err
		}
		r, err := runcfg.New(w.Prog, cfg)
		if err != nil {
			return WarmRestartRecord{}, err
		}
		if !r.AdoptCache(loaded) {
			return WarmRestartRecord{}, fmt.Errorf("bench: %s/%s refused its own stored cache", name, engine)
		}
		t1 := time.Now()
		if err := r.Run(0); err != nil {
			return WarmRestartRecord{}, err
		}
		if d := time.Since(t1); rep == 0 || d < dWarm {
			dWarm = d
		}
		warm = r
	}
	warmRes, warmStats := warm.Result(), warm.Stats()

	if warmRes.Cycles != coldRes.Cycles || warmRes.Insts != coldRes.Insts {
		return WarmRestartRecord{}, fmt.Errorf(
			"bench: %s/%s warm run diverged: %d insts/%d cycles vs cold %d/%d",
			name, engine, warmRes.Insts, warmRes.Cycles, coldRes.Insts, coldRes.Cycles)
	}

	coldMIPS, warmMIPS := mips(coldRes.Insts, dCold), mips(warmRes.Insts, dWarm)
	rec := WarmRestartRecord{
		Name:           name,
		Engine:         engine,
		Insts:          coldRes.Insts,
		Cycles:         coldRes.Cycles,
		ColdMIPS:       coldMIPS,
		WarmMIPS:       warmMIPS,
		ColdFastFwdPct: coldStats.FastForwardedPc,
		WarmFastFwdPct: warmStats.FastForwardedPc,
		CacheEntries:   entries,
		CacheBytes:     cacheBytes,
		RecordBytes:    meta.FileBytes,
		SaveMs:         float64(dSave.Nanoseconds()) / 1e6,
		LoadMs:         float64(dLoad.Nanoseconds()) / 1e6,
	}
	if coldMIPS > 0 {
		rec.Speedup = warmMIPS / coldMIPS
	}
	return rec, nil
}

// BenchOut is the canonical machine-readable benchmark artifact
// (BENCH_<n>.json): per-workload simulated-instruction rates plus the
// warm-vs-cold-restart records proving the persistent store's win.
type BenchOut struct {
	Schema      string    `json:"schema"` // "facile-bench/1"
	GeneratedAt time.Time `json:"generated_at"`
	GoOS        string    `json:"goos"`
	GoArch      string    `json:"goarch"`
	NumCPU      int       `json:"num_cpu"`
	Scale       int       `json:"scale"`

	// Rows is the canonical per-workload rate table (Figure 11 layout:
	// memoizing, non-memoizing, and conventional-baseline Msim-inst/s).
	Rows []Row `json:"rows"`
	// WarmRestart holds the store's headline numbers.
	WarmRestart []WarmRestartRecord `json:"warm_restart"`
}

// RunBenchOut produces the canonical benchmark artifact for cfg.
func RunBenchOut(cfg Config) (*BenchOut, error) {
	rows, err := Figure11(cfg)
	if err != nil {
		return nil, err
	}
	out := &BenchOut{
		Schema:      "facile-bench/1",
		GeneratedAt: time.Now().UTC(),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Scale:       cfg.Scale,
		Rows:        rows,
	}
	for _, name := range cfg.names() {
		rec, err := WarmRestart(name, cfg.Scale, runcfg.EngineFastsim)
		if err != nil {
			return nil, err
		}
		out.WarmRestart = append(out.WarmRestart, rec)
	}
	return out, nil
}

// WriteFile writes the artifact as indented JSON.
func (b *BenchOut) WriteFile(path string) error {
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// WriteWarmRestart writes the warm-restart table for the text report.
func WriteWarmRestart(w interface{ Write([]byte) (int, error) }, recs []WarmRestartRecord) {
	fmt.Fprintf(w, "Warm-vs-cold restart (cache reloaded from the on-disk store)\n")
	fmt.Fprintf(w, "%-14s %12s | %10s %10s %8s | %10s %8s %8s\n",
		"benchmark", "sim insts", "cold", "warm", "speedup", "record", "save", "load")
	fmt.Fprintf(w, "%-14s %12s | %10s %10s %8s | %10s %8s %8s\n",
		"", "", "Msim-i/s", "Msim-i/s", "", "bytes", "ms", "ms")
	for _, r := range recs {
		fmt.Fprintf(w, "%-14s %12d | %10.2f %10.2f %7.1fx | %10d %8.2f %8.2f\n",
			r.Name, r.Insts, r.ColdMIPS, r.WarmMIPS, r.Speedup, r.RecordBytes, r.SaveMs, r.LoadMs)
	}
}
