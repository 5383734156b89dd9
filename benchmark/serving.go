package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"facile/internal/cachestore"
	"facile/internal/fleet"
	"facile/internal/serve"
)

// front is a running serving stack: one worker behind its own HTTP listener,
// or a router in front of two. Everything is in-process on loopback.
type front struct {
	kind    string // "serve" or "fleet": the layer the clients call
	base    string // URL the clients talk to
	workers []*serve.Server
	closers []func()
}

// startFront starts the stack for spec under dir (one store directory per
// worker). Call stop on every path out, including failure.
func startFront(fleetMode bool, spec streamSpec, dir string) (*front, error) {
	f := &front{kind: "serve"}
	n := 1
	if fleetMode {
		f.kind, n = "fleet", 2
	}
	var urls []string
	for i := 0; i < n; i++ {
		cfg := serve.Config{Workers: 1, QueueDepth: queueDepth}
		if spec.Store {
			st, err := cachestore.Open(filepath.Join(dir, fmt.Sprintf("%s-w%d", f.kind, i+1)), cachestore.Options{})
			if err != nil {
				f.stop()
				return nil, fmt.Errorf("open cache store: %w", err)
			}
			cfg.Store = st
		}
		s := serve.New(cfg)
		ts := httptest.NewServer(s.Handler())
		f.workers = append(f.workers, s)
		f.closers = append(f.closers, func() { s.Drain(); ts.Close() })
		urls = append(urls, ts.URL)
	}
	f.base = urls[0]
	if fleetMode {
		r := fleet.NewRouter(fleet.Config{})
		rts := httptest.NewServer(r.Handler())
		// The router goes first on the way down: it holds streams open
		// against the workers.
		f.closers = append([]func(){func() { rts.Close(); r.Close() }}, f.closers...)
		for i, u := range urls {
			if _, err := r.Register(fleet.RegisterRequest{URL: u, Name: fmt.Sprintf("w%d", i+1)}); err != nil {
				f.stop()
				return nil, fmt.Errorf("register worker: %w", err)
			}
		}
		f.base = rts.URL
	}
	return f, nil
}

func (f *front) stop() {
	for _, c := range f.closers {
		c()
	}
	f.closers = nil
}

// flush drops every worker's parked caches, as a restart or an eviction
// would; with a store the next job of each lineage reloads from disk.
func (f *front) flush() {
	for _, s := range f.workers {
		s.FlushWarm()
	}
}

// jobsPerWorker counts the jobs each worker has accepted.
func (f *front) jobsPerWorker() []int {
	var out []int
	for _, s := range f.workers {
		out = append(out, len(s.List()))
	}
	return out
}

// stream lays out a workload's job stream in blocks. A block holds every
// lineage exactly Weight times, in an order drawn from (seed, block number),
// so any stretch of the stream has the same mix and only the order is random:
// the seed cannot hand one run more slow jobs than another. Job i depends on
// (seed, i) alone, not on which client asks or when.
type stream struct {
	spec  streamSpec
	seed  int64
	block []int // lineage index of each slot of a block, before shuffling
}

func newStream(spec streamSpec, seed int64) *stream {
	s := &stream{spec: spec, seed: seed}
	for li, l := range spec.Lineages {
		for k := 0; k < l.Weight; k++ {
			s.block = append(s.block, li)
		}
	}
	return s
}

// splitmix64 is the finalizer of Vigna's SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request returns job i and the index of its lineage.
func (s *stream) request(i int) (serve.JobRequest, int) {
	n := len(s.block)
	order := append([]int(nil), s.block...)
	state := splitmix64(uint64(s.seed)) ^ uint64(i/n)
	for k := n - 1; k > 0; k-- { // Fisher-Yates
		state = splitmix64(state)
		j := int(state % uint64(k+1))
		order[k], order[j] = order[j], order[k]
	}
	li := order[i%n]
	l := s.spec.Lineages[li]
	req := serve.JobRequest{Bench: l.Bench, Scale: 1, Engine: l.Engine, Memoize: true, CacheCapBytes: l.Cap}
	if s.spec.Fresh {
		req.CacheCapBytes = freshCap(i)
	}
	return req, li
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	Index      int
	Lineage    int
	Submit     time.Time // before the POST
	Accepted   time.Time // POST returned
	FirstEvent time.Time // first NDJSON line of the events stream
	Done       time.Time // terminal line read
	Status     serve.JobStatus
	Err        error
}

// runStream sends jobs from, from+1, ... through the front from `clients`
// closed-loop clients until at least minJobs are sent and budget has passed.
// It returns the records in completion order and the wall time of the phase.
func (b *bench) runStream(ctx context.Context, f *front, st *stream, from, minJobs int, budget time.Duration) ([]jobRecord, time.Duration) {
	phase := b.tr.begin("benchmark.stream", fmt.Sprintf("%s/%s", b.w.Name, f.kind), -1, 0)
	defer func() { b.tr.end(phase, nil) }()
	var (
		mu        sync.Mutex
		records   []jobRecord
		next      atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			cl := &serve.Client{Base: f.base, HC: &http.Client{}}
			defer cl.HC.CloseIdleConnections()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= minJobs && time.Since(start) >= budget {
					return
				}
				rec := b.oneJob(ctx, cl, f, st, from+n, lane)
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
				if k := int(completed.Add(1)); st.spec.FlushEvery > 0 && k%st.spec.FlushEvery == 0 {
					f.flush()
				}
			}
		}(c + 1)
	}
	wg.Wait()
	return records, time.Since(start)
}

// oneJob submits job i and waits for its terminal event line.
func (b *bench) oneJob(ctx context.Context, cl *serve.Client, f *front, st *stream, i, lane int) jobRecord {
	req, li := st.request(i)
	rec := jobRecord{Index: i, Lineage: li}
	id := fmt.Sprintf("%s/%s/job%d", b.w.Name, f.kind, i) // shared by every span of this job
	root := b.tr.begin("client.job", id, -1, lane)
	rec.Submit = time.Now()
	sp := b.tr.begin(f.kind+".submit", id, root, lane)
	acc, err := cl.Submit(ctx, req)
	rec.Accepted = time.Now()
	b.tr.end(sp, nil)
	if err != nil {
		rec.Err = fmt.Errorf("submit: %w", err)
		b.tr.end(root, nil)
		return rec
	}
	sp = b.tr.begin(f.kind+".events", id, root, lane)
	rec.Status, err = cl.WaitJob(ctx, acc.ID, func([]byte) {
		if rec.FirstEvent.IsZero() {
			rec.FirstEvent = time.Now()
		}
	})
	rec.Done = time.Now()
	if rec.FirstEvent.IsZero() {
		rec.FirstEvent = rec.Done
	}
	if err != nil {
		rec.Err = fmt.Errorf("wait %s: %w", acc.ID, err)
	} else {
		rec.Err = b.checkJob(rec.Status, li)
		// The worker's own account of the job, as children of the wait.
		s := rec.Status
		b.tr.add("serve.queue", id, sp, s.QueuedAt, s.StartedAt)
		b.tr.add("serve.run", id, sp, s.StartedAt, s.FinishedAt)
		b.tr.add("serve.notify", id, sp, s.FinishedAt, rec.Done)
	}
	b.tr.end(sp, nil)
	b.tr.end(root, map[string]float64{"job": float64(i)})
	return rec
}

// checkJob is the correctness gate of one job: it must end done with the
// result of the direct run of its lineage.
func (b *bench) checkJob(s serve.JobStatus, li int) error {
	if s.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", s.ID, s.State, s.Error)
	}
	want := b.fx.lineageRef[li]
	if s.Result == nil || s.Result.Insts != want.Insts || s.Result.Cycles != want.Cycles ||
		s.Result.Exit != want.Exit || !bytes.Equal(s.Result.Output, want.Output) {
		return fmt.Errorf("job %s: result differs from the direct run of its lineage", s.ID)
	}
	return nil
}

// servedResult is what one served phase measured.
type servedResult struct {
	Kind      string // "serve" or "fleet"
	Jobs      int
	Wall      time.Duration
	LatencyMs []float64
	Layer     map[string]value // per-layer metrics of this phase
	StorePct  float64
	Lineages  []string // one line per lineage: jobs, run time, clears, replayed share
	Attempted int
	Failures  []string
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// summarize turns job records into latencies and per-layer metrics. Layer
// metric names take the front's kind as prefix where the layer differs
// (submit), "serve." where the worker reports it.
func summarize(f *front, recs []jobRecord, wall time.Duration) *servedResult {
	r := &servedResult{Kind: f.kind, Jobs: len(recs), Wall: wall, Layer: map[string]value{}, Attempted: len(recs)}
	var submit, queue, run, notify, first []float64
	bySource := map[string][]float64{}
	warm := 0
	for _, rec := range recs {
		if rec.Err != nil {
			r.Failures = append(r.Failures, rec.Err.Error())
			continue
		}
		s := rec.Status
		r.LatencyMs = append(r.LatencyMs, msBetween(rec.Submit, rec.Done))
		submit = append(submit, msBetween(rec.Submit, rec.Accepted))
		queue = append(queue, msBetween(s.QueuedAt, s.StartedAt))
		run = append(run, msBetween(s.StartedAt, s.FinishedAt))
		notify = append(notify, msBetween(s.FinishedAt, rec.Done))
		first = append(first, msBetween(rec.Submit, rec.FirstEvent))
		src := "cold"
		if s.WarmStart {
			warm++
			src = s.WarmSource
			if src != serve.WarmSourceMemory {
				src = "store" // a fleet reports a store load after a move as "migrated"
			}
		}
		bySource[src] = append(bySource[src], msBetween(s.StartedAt, s.FinishedAt))
	}
	r.Lineages = perLineage(recs)
	n := len(r.LatencyMs)
	put := func(name string, v float64, unit string, n int) { r.Layer[name] = value{Value: v, Unit: unit, N: n} }
	put(f.kind+".submit_ms", median(submit), "ms", n)
	if f.kind == "serve" {
		put("serve.queue_wait_p50_ms", median(queue), "ms", n)
		put("serve.queue_wait_p95_ms", percentile(queue, 95), "ms", n)
		put("serve.run_p50_ms", median(run), "ms", n)
		put("serve.run_p95_ms", percentile(run, 95), "ms", n)
		put("serve.notify_ms", median(notify), "ms", n)
		put("serve.first_event_ms", median(first), "ms", n)
		put("serve.job_p99_ms", percentile(r.LatencyMs, 99), "ms", n)
		for _, src := range []string{"memory", "store", "cold"} {
			share := 0.0
			if n > 0 {
				share = 100 * float64(len(bySource[src])) / float64(n)
			}
			put("serve.warm_share."+src, share, "%", n)
			put("serve.run_ms."+src, median(bySource[src]), "ms", len(bySource[src]))
		}
	} else {
		per := f.jobsPerWorker()
		lo, hi := per[0], per[0]
		for _, k := range per {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		skew := 0.0
		if lo > 0 {
			skew = float64(hi) / float64(lo)
		}
		put("fleet.placement_skew", skew, "ratio", len(per))
		hit := 0.0
		if n > 0 {
			hit = 100 * float64(warm) / float64(n)
		}
		put("fleet.warm_hit_pct", hit, "%", n)
	}
	if n > 0 {
		r.StorePct = 100 * float64(len(bySource["store"])) / float64(n)
	}
	return r
}

// perLineage renders, per lineage, how many jobs ran and what the worker
// reported for them: the traced run prints these so a slow or thrashing
// lineage can be told from a slow server.
func perLineage(recs []jobRecord) []string {
	type acc struct {
		name         string
		run, ff, clr []float64
	}
	byIdx := map[int]*acc{}
	var order []int
	for _, rec := range recs {
		if rec.Err != nil || rec.Status.Stats == nil {
			continue
		}
		a := byIdx[rec.Lineage]
		if a == nil {
			a = &acc{name: rec.Status.Bench + "/" + rec.Status.Engine}
			byIdx[rec.Lineage] = a
			order = append(order, rec.Lineage)
		}
		s := rec.Status
		a.run = append(a.run, msBetween(s.StartedAt, s.FinishedAt))
		a.ff = append(a.ff, s.Stats.FastForwardedPc)
		a.clr = append(a.clr, float64(s.Stats.CacheClears))
	}
	sort.Ints(order)
	var out []string
	for _, i := range order {
		a := byIdx[i]
		out = append(out, fmt.Sprintf("%-26s jobs %4d  run p50 %7.2f ms p95 %7.2f ms  clears p50 %4.0f  fastfwd p50 %6.2f%%",
			a.name, len(a.run), median(a.run), percentile(a.run, 95), median(a.clr), median(a.ff)))
	}
	return out
}
