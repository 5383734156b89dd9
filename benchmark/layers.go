package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"facile/internal/cachestore"
	"facile/internal/runcfg"
)

// The probes below run only in a traced run. They measure unit costs that a
// workload's own timed runs cannot isolate: on `cold` no chunk is pure replay,
// and no memoizing run shows what a slow step costs without recording.

// probeProgram is the program of the replay and warm-cache probes, the same
// on every workload.
var probeProgram = progID{"126.gcc", 4}

// probeChunk is the Run granularity of the replay probe: small enough that
// most chunks of the fac-ooo run (60 k steps) see no slow step at all.
const probeChunk = 4096

// slowProbeSteps bounds the non-memoizing probe, shared evenly among the
// programs of the configuration's pass (a Facile OOO slow step costs tens of
// microseconds).
const slowProbeSteps = 8192

// unitCosts are one engine's replay and slow cost per step.
type unitCosts struct {
	ReplayNs float64
	ReplayN  int // replayed steps measured
	SlowNs   float64
	SlowN    int // slow steps measured
}

// probeUnitCosts measures memoizing configuration c. Replay: a memoizing run
// of probeProgram in probeChunk units, keeping the chunks in which no step
// ran slow. Slow: the start of every program of c's own pass with memoization
// off, so the cost is that of this workload's kind of program. tot is c's
// pass total, which converts instructions to steps for the engine that does
// not count steps when it records nothing.
func (b *bench) probeUnitCosts(c config, tot counters) (unitCosts, error) {
	var u unitCosts
	p := b.fx.programs[probeProgram]
	root := b.tr.begin("benchmark.probe", c.Name, -1, 0)
	defer func() { b.tr.end(root, nil) }()

	r, err := runcfg.New(p.Prog, runcfg.Config{Engine: c.Engine, Memoize: true})
	if err != nil {
		return u, err
	}
	var wall time.Duration
	var replays uint64
	for !r.Done() {
		s0 := r.Stats()
		sp := b.tr.begin("runcfg.Run", "probe/"+c.Name, root, 0)
		t0 := time.Now()
		err := r.Run(r.Progress() + probeChunk)
		d := time.Since(t0)
		delta := statsDelta(s0, r.Stats())
		b.tr.end(sp, map[string]float64{"slow_steps": float64(delta.Slow), "replays": float64(delta.Replays)})
		if err != nil {
			return u, err
		}
		if delta.Slow == 0 && delta.Replays > 0 {
			wall += d
			replays += delta.Replays
		}
	}
	if err := checkAgainstRef(r.Result(), p.Ref); err != nil {
		return u, fmt.Errorf("replay probe %s: %w", c.Name, err)
	}
	if replays > 0 {
		u.ReplayNs, u.ReplayN = float64(wall.Nanoseconds())/float64(replays), int(replays)
	}

	stepsPerInst := 1.0
	if tot.Insts > 0 && tot.Slow+tot.Replays > 0 {
		stepsPerInst = float64(tot.Slow+tot.Replays) / float64(tot.Insts)
	}
	runs := b.w.Direct[c.Name].Runs
	wall = 0
	var steps float64
	for _, dr := range runs {
		slow, err := runcfg.New(b.fx.programs[dr.Prog].Prog, runcfg.Config{Engine: c.Engine, Memoize: false})
		if err != nil {
			return u, err
		}
		target := float64(slowProbeSteps / len(runs))
		if c.Engine == runcfg.EngineFastsim { // fastsim counts progress in instructions
			target /= stepsPerInst
		}
		sp := b.tr.begin("runcfg.Run", "probe/"+c.Name+"-nomemo/"+dr.Prog.String(), root, 0)
		t0 := time.Now()
		err = slow.Run(uint64(target) + 1)
		wall += time.Since(t0)
		b.tr.end(sp, nil)
		if err != nil {
			return u, err
		}
		if n := slow.Stats().SlowSteps; n > 0 {
			steps += float64(n)
		} else {
			steps += float64(slow.Result().Insts) * stepsPerInst
		}
	}
	if steps > 0 {
		u.SlowNs, u.SlowN = float64(wall.Nanoseconds())/steps, int(steps)
	}
	return u, nil
}

// warmRoundTrips is how many Detach→Encode→Save→Load→Decode→Adopt trips the
// warm-cache probe makes per engine.
const warmRoundTrips = 25

// probeWarmPath times the path a parked cache takes through runcfg and
// cachestore on a finished fastsim run and a finished fac-ooo run of the
// probe program, and returns the per-layer metrics.
func (b *bench) probeWarmPath(dir string) (map[string]value, error) {
	store, err := cachestore.Open(filepath.Join(dir, "probe-store"), cachestore.Options{})
	if err != nil {
		return nil, err
	}
	p := b.fx.programs[probeProgram]
	var enc, dec, save, load, kb, da []float64
	root := b.tr.begin("benchmark.probe", "warm-path", -1, 0)
	defer func() { b.tr.end(root, nil) }()
	for _, engine := range []string{runcfg.EngineFastsim, runcfg.EngineFacOOO} {
		cfg := runcfg.Config{Engine: engine, Memoize: true}
		cur, err := runcfg.New(p.Prog, cfg)
		if err != nil {
			return nil, err
		}
		if err := cur.Run(0); err != nil {
			return nil, err
		}
		key := "probe-" + engine
		fp := runcfg.CacheFingerprint(engine)
		for i := 0; i < warmRoundTrips; i++ {
			id := fmt.Sprintf("warm/%s/%d", engine, i)
			trip := b.tr.begin("benchmark.warm_trip", id, root, 0)
			timed := func(name string, f func() error) (float64, error) {
				sp := b.tr.begin(name, id, trip, 0)
				t0 := time.Now()
				err := f()
				d := time.Since(t0)
				b.tr.end(sp, nil)
				return ms(d), err
			}
			var wc runcfg.WarmCache
			var payload, blob []byte
			tDetach, _ := timed("runcfg.DetachCache", func() error { wc = cur.DetachCache(); return nil })
			if wc == nil {
				return nil, fmt.Errorf("warm probe %s: nothing to detach", engine)
			}
			tEnc, err := timed("runcfg.EncodeWarmCache", func() (err error) { payload, err = runcfg.EncodeWarmCache(wc); return })
			if err != nil {
				return nil, err
			}
			tSave, err := timed("cachestore.Save", func() error { return store.Save(key, engine, fp, wc.Entries(), wc.Bytes(), payload) })
			if err != nil {
				return nil, err
			}
			tLoad, err := timed("cachestore.Load", func() (err error) { _, blob, err = store.Load(key); return })
			if err != nil {
				return nil, err
			}
			var back runcfg.WarmCache
			tDec, err := timed("runcfg.DecodeWarmCache", func() (err error) { back, err = runcfg.DecodeWarmCache(blob); return })
			if err != nil {
				return nil, err
			}
			next, err := runcfg.New(p.Prog, cfg)
			if err != nil {
				return nil, err
			}
			adopted := false
			tAdopt, _ := timed("runcfg.AdoptCache", func() error { adopted = next.AdoptCache(back); return nil })
			b.tr.end(trip, map[string]float64{"payload_bytes": float64(len(payload))})
			if !adopted {
				return nil, fmt.Errorf("warm probe %s: decoded cache refused", engine)
			}
			cur = next
			enc, dec, save, load = append(enc, tEnc), append(dec, tDec), append(save, tSave), append(load, tLoad)
			kb = append(kb, float64(len(payload))/1024)
			da = append(da, (tDetach+tAdopt)*1e3)
		}
		// The cache that made every trip must still replay the program.
		if err := cur.Run(0); err != nil {
			return nil, err
		}
		if err := checkAgainstRef(cur.Result(), p.Ref); err != nil {
			return nil, fmt.Errorf("warm probe %s after %d trips: %w", engine, warmRoundTrips, err)
		}
	}
	n := len(enc)
	return map[string]value{
		"runcfg.warm_encode_ms":  {median(enc), "ms", n},
		"runcfg.warm_decode_ms":  {median(dec), "ms", n},
		"cachestore.save_ms":     {median(save), "ms", n},
		"cachestore.load_ms":     {median(load), "ms", n},
		"cachestore.record_kb":   {median(kb), "KB", n},
		"runcfg.detach_adopt_us": {median(da), "us", n},
	}, nil
}

// layerMetrics fills res with every per-layer metric of a traced run: the
// engines' counters and unit costs, the set-up timings, both served phases,
// the warm-cache path and the tracing overhead.
func (b *bench) layerMetrics(res *runResult, d *directResult, served []*servedResult, tmp string) error {
	for _, c := range memoConfigs() {
		tot := d.Totals[c.Name]
		u, err := b.probeUnitCosts(c, tot)
		if err != nil {
			return err
		}
		passes := len(d.NsPerInst[c.Name])
		put := func(name string, v float64, n int) { res.put(c.Layer+"."+name, v, n) }
		perSlow := func(x float64) float64 {
			if tot.Slow == 0 {
				return 0
			}
			return x / float64(tot.Slow)
		}
		put("replay_ns_per_step", u.ReplayNs, u.ReplayN)
		put("slow_ns_per_step", u.SlowNs, u.SlowN)
		// What a slow step costs beyond running it: recording its actions,
		// building its key, and this pass's share of machine build.
		put("record_ns_per_slow_step", perSlow(float64(tot.Wall.Nanoseconds())-float64(tot.Replays)*u.ReplayNs)-u.SlowNs, int(tot.Slow))
		put("build_ms", median(d.BuildMs[c.Name]), len(d.BuildMs[c.Name]))
		put("memo_bytes_per_slow_step", perSlow(float64(tot.MemoBytes)), int(tot.Slow))
		put("cache_bytes_peak", float64(tot.PeakCache), passes)
		put("cache_clears", float64(tot.Clears), passes)
		put("slow_steps", float64(tot.Slow), passes)
		put("replays", float64(tot.Replays), passes)
		put("misses", float64(tot.Misses), passes)
		put("key_misses", float64(tot.KeyMisses), passes)
		put("fastfwd_pct", tot.fastFwdPct(), passes)
		put("alloc_bytes_per_inst", float64(tot.Alloc)/float64(tot.Insts), passes)
	}
	for layer, cfg := range map[string]string{"ooo": "ooo", "funcsim": "func"} {
		tot := d.Totals[cfg]
		res.put(layer+".alloc_bytes_per_inst", float64(tot.Alloc)/float64(tot.Insts), len(d.NsPerInst[cfg]))
	}

	res.put("asm.assemble_ms", b.fx.assembleMs, len(b.fx.programs))
	res.put("lang.compile_ms.func", b.fx.compileMs["func"], 1)
	res.put("lang.compile_ms.inorder", b.fx.compileMs["inorder"], 1)
	res.put("lang.compile_ms.ooo", b.fx.compileMs["ooo"], 1)
	res.put("lang.vet_preflight_ms", b.fx.preflightMs, 3)
	res.put("funcsim.reference_s", b.fx.referenceS, len(b.fx.programs))

	for _, s := range served {
		for name, v := range s.Layer {
			res.put(name, v.Value, v.N)
		}
	}
	for _, s := range served {
		for _, l := range s.Lineages {
			res.infof("lineage %s %s", s.Kind, l)
		}
	}
	res.put("fleet.hop_ms", res.Metrics["fleet.submit_ms"].Value-res.Metrics["serve.submit_ms"].Value, res.Metrics["fleet.submit_ms"].N)

	warm, err := b.probeWarmPath(tmp)
	if err != nil {
		return err
	}
	for name, v := range warm {
		res.put(name, v.Value, v.N)
	}

	traced, bare := median(d.NsPerInst[overheadConfig]), median(d.BareNsPerInst)
	res.put("trace_overhead_pct", 100*relDiff(bare, traced), len(d.BareNsPerInst))
	res.infof("trace overhead on ns_per_inst.%s: %.2f ns traced, %.2f ns bare", overheadConfig, traced, bare)

	// Self time per span name: a span's duration minus what its children cover.
	self := selfTimes(b.tr.snapshot())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		res.infof("self %-26s %10.1f ms", n, ms(self[n]))
	}
	return nil
}
