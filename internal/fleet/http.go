package fleet

// The fleet front-end speaks the same HTTP/JSON surface as a single
// fsimd (fsweep -server and curl point at the router unchanged), plus
// the fleet-only endpoints: worker registration, topology, and merged
// metrics.
//
//	POST   /v1/workers          worker self-registration (RegisterRequest)
//	DELETE /v1/workers/{name}   graceful deregistration
//	GET    /v1/fleet            topology: workers, load, assignments
//	GET    /v1/metrics          fleet-wide merge of every worker's metrics
//	                            (counters/histograms summed, gauges by
//	                            worker) plus the router's own registry
//
// plus the whole single-worker surface (/v1/jobs, /v1/sweeps, /v1/caches,
// /healthz) with fleet semantics: router-owned IDs, affinity placement,
// failover, and event streams that survive a worker death by reconnecting
// to the failover successor.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"facile/internal/cachestore"
	"facile/internal/serve"
)

// Handler returns the router's API mux.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", r.handleRegister)
	mux.HandleFunc("DELETE /v1/workers/{name}", r.handleDeregister)
	mux.HandleFunc("GET /v1/fleet", r.handleFleet)
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", r.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", r.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", r.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", r.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", r.handleSweepStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", r.handleSweepEvents)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", r.handleSweepCancel)
	mux.HandleFunc("GET /v1/caches", r.handleCacheList)
	mux.HandleFunc("GET /v1/caches/{key}", r.handleCacheExport)
	mux.HandleFunc("PUT /v1/caches/{key}", r.handleCacheImport)
	mux.HandleFunc("DELETE /v1/caches/{key}", r.handleCacheDelete)
	mux.HandleFunc("GET /healthz", r.handleHealth)
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr maps router errors onto the single-worker wire vocabulary:
// worker StatusErrors forward verbatim (a 429 from the chosen worker IS
// fleet backpressure), router sentinels get their natural codes, and
// anything else is a 502 — the router itself is fine, the hop failed.
func writeErr(w http.ResponseWriter, err error) {
	var se *serve.StatusError
	switch {
	case errors.As(err, &se):
		writeJSON(w, se.Code, apiError{Error: se.Msg})
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrUnknownSweep):
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.Is(err, ErrNoWorkers), errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, serve.ErrJobDone):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadGateway, apiError{Error: err.Error()})
	}
}

func (r *Router) handleRegister(w http.ResponseWriter, req *http.Request) {
	var rr RegisterRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	resp, err := r.Register(rr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Router) handleDeregister(w http.ResponseWriter, req *http.Request) {
	if err := r.Deregister(req.PathValue("name")); err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": "deregistered"})
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var jr serve.JobRequest
	if err := json.NewDecoder(req.Body).Decode(&jr); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	st, err := r.SubmitJob(req.Context(), jr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (r *Router) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.ListJobs())
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	st, err := r.JobStatus(req.Context(), req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (r *Router) handleCancel(w http.ResponseWriter, req *http.Request) {
	if err := r.CancelJob(req.Context(), req.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "canceling"})
}

// handleJobEvents re-streams the job's NDJSON events from whichever
// worker currently runs it. Sample lines pass through verbatim; the
// terminal status line is rewritten into fleet terms. When the upstream
// worker dies mid-stream the response stays open, the router fails the
// job over, and the stream resumes from the successor — the client sees
// one uninterrupted stream ending in exactly one status line.
func (r *Router) handleJobEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.Lock()
	j := r.jobs[id]
	r.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: ErrUnknownJob.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	writeTerminal := func() {
		r.mu.Lock()
		st := r.publicStatusLocked(j)
		r.mu.Unlock()
		_ = enc.Encode(map[string]any{"type": "status", "status": st})
		if flusher != nil {
			flusher.Flush()
		}
	}

	for {
		r.mu.Lock()
		terminal := j.terminal || j.failed != ""
		wk := r.workers[j.worker]
		remote := j.remoteID
		live := !terminal && remote != "" && wk != nil && wk.state != WorkerDead
		r.mu.Unlock()
		if terminal {
			writeTerminal()
			return
		}
		if !live {
			// Awaiting failover resubmission; poll until the job lands.
			select {
			case <-req.Context().Done():
				return
			case <-r.ctx.Done():
				return
			case <-time.After(r.cfg.HeartbeatEvery / 2):
			}
			continue
		}
		st, err := wk.client.WaitJob(req.Context(), remote, func(line []byte) {
			_, _ = w.Write(line)
			_, _ = w.Write([]byte("\n"))
			if flusher != nil {
				flusher.Flush()
			}
		})
		if err == nil {
			r.mu.Lock()
			j.last = st
			finished := !j.terminal && isTerminalState(st.State)
			if finished {
				j.terminal = true
			}
			r.mu.Unlock()
			if finished {
				r.noteFinished(j)
			}
			writeTerminal()
			return
		}
		if req.Context().Err() != nil || r.ctx.Err() != nil {
			return // client went away; nothing to clean up beyond the body
		}
		// Upstream broke mid-stream (worker died or restarted). Loop:
		// either the heartbeat ejects the worker and failover re-lands the
		// job, or the next WaitJob reconnects to the same worker.
		select {
		case <-req.Context().Done():
			return
		case <-time.After(r.cfg.HeartbeatEvery / 2):
		}
	}
}

// --- sweeps ----------------------------------------------------------------

func (r *Router) handleSweepSubmit(w http.ResponseWriter, req *http.Request) {
	var sr serve.SweepRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	st, err := r.SubmitSweep(req.Context(), sr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (r *Router) handleSweepList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.ListSweeps(req.Context()))
}

func (r *Router) handleSweepStatus(w http.ResponseWriter, req *http.Request) {
	st, err := r.SweepStatus(req.Context(), req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (r *Router) handleSweepCancel(w http.ResponseWriter, req *http.Request) {
	if err := r.CancelSweep(req.Context(), req.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "canceling"})
}

// handleSweepEvents proxies the sweep's NDJSON stream from its worker.
// Point lines pass through verbatim; the terminal "sweep" line is
// rewritten to the fleet sweep ID. No reconnect: sweeps pin to their
// worker and die with it.
func (r *Router) handleSweepEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	wk, remote, err := r.sweepWorker(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	up, err := http.NewRequestWithContext(req.Context(), http.MethodGet,
		wk.client.Base+"/v1/sweeps/"+remote+"/events", nil)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, err := r.hc.Do(up)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		writeJSON(w, resp.StatusCode, apiError{Error: fmt.Sprintf("worker %s: HTTP %d", wk.name, resp.StatusCode)})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type  string             `json:"type"`
			Sweep *serve.SweepStatus `json:"sweep"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Type == "sweep" && probe.Sweep != nil {
			probe.Sweep.ID = id
			blob, err := json.Marshal(map[string]any{"type": "sweep", "sweep": probe.Sweep})
			if err == nil {
				line = blob
			}
		}
		_, _ = w.Write(line)
		_, _ = w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// --- caches ----------------------------------------------------------------

// aliveWorkers snapshots the non-dead workers.
func (r *Router) aliveWorkers() []*Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Worker
	for _, w := range r.workers {
		if w.state != WorkerDead {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// handleCacheList merges every worker's persisted-record list: one entry
// per key, the freshest copy winning, so the fleet view reads like one
// big store.
func (r *Router) handleCacheList(w http.ResponseWriter, req *http.Request) {
	byKey := map[string]cachestore.Meta{}
	for _, wk := range r.aliveWorkers() {
		metas, err := wk.client.ListCaches(req.Context())
		if err != nil {
			continue // storeless or degraded worker: contributes nothing
		}
		for _, m := range metas {
			if prev, ok := byKey[m.Key]; !ok || m.SavedAt.After(prev.SavedAt) {
				byKey[m.Key] = m
			}
		}
	}
	out := make([]cachestore.Meta, 0, len(byKey))
	for _, m := range byKey {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	writeJSON(w, http.StatusOK, out)
}

// cacheTargets orders workers for a key: the sticky assignee (who holds
// the lineage warm) first, then the rest.
func (r *Router) cacheTargets(key string) []*Worker {
	ws := r.aliveWorkers()
	r.mu.Lock()
	owner := r.assign[key]
	r.mu.Unlock()
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].name == owner && ws[b].name != owner })
	return ws
}

func (r *Router) handleCacheExport(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	var lastErr error
	for _, wk := range r.cacheTargets(key) {
		blob, err := wk.client.ExportCache(req.Context(), key)
		if err == nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(blob)
			return
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = &serve.StatusError{Code: http.StatusNotFound, Msg: "no worker holds " + key}
	}
	writeErr(w, lastErr)
}

// handleCacheImport installs a record on the key's assigned worker (or
// its ring owner when unassigned) — pre-seeding a lineage places the
// record exactly where the first job of that lineage will land.
func (r *Router) handleCacheImport(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	blob, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<30))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	r.mu.Lock()
	wk, _, rerr := r.routeLocked(key, key, nil)
	r.mu.Unlock()
	if rerr != nil {
		writeErr(w, rerr)
		return
	}
	if err := wk.client.ImportCache(req.Context(), key, blob); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"state": "imported", "worker": wk.name})
}

func (r *Router) handleCacheDelete(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	deleted := false
	for _, wk := range r.aliveWorkers() {
		ctx, cancel := context.WithTimeout(req.Context(), 10*time.Second)
		err := wk.client.DeleteCache(ctx, key)
		cancel()
		if err == nil {
			deleted = true
		}
	}
	r.mu.Lock()
	delete(r.migrated, key)
	if rec := r.shadow[key]; rec != nil {
		r.shadowBytes -= int64(len(rec.blob))
		delete(r.shadow, key)
	}
	r.mu.Unlock()
	if !deleted {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no worker held " + key})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": "deleted"})
}

// --- health and topology ---------------------------------------------------

// RouterHealth is the router's /healthz body.
type RouterHealth struct {
	Status  string `json:"status"` // "ok" | "degraded"
	Workers int    `json:"workers"`
	Alive   int    `json:"alive"`
}

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	total := len(r.workers)
	alive := 0
	for _, wk := range r.workers {
		if wk.state != WorkerDead {
			alive++
		}
	}
	r.mu.Unlock()
	h := RouterHealth{Status: "ok", Workers: total, Alive: alive}
	if alive == 0 {
		h.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, h)
}

// WorkerStatus is one worker's row in the /v1/fleet topology.
type WorkerStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`

	QueueDepth   int     `json:"queue_depth"`
	QueueCap     int     `json:"queue_cap"`
	RunningJobs  int     `json:"running_jobs"`
	Workers      int     `json:"workers"`
	SaturationPc float64 `json:"saturation_pc"`

	LastSeenMs int64 `json:"last_seen_ms"` // since the last successful probe
	Fails      int   `json:"fails"`
	Lineages   int   `json:"lineages"` // sticky assignments held
	OpenJobs   int   `json:"open_jobs"`
}

// FleetStatus is the GET /v1/fleet body: topology plus the full
// lineage→worker assignment table.
type FleetStatus struct {
	Workers     []WorkerStatus    `json:"workers"`
	Assignments map[string]string `json:"assignments"`
	Jobs        int               `json:"jobs"`
	OpenJobs    int               `json:"open_jobs"`
	Sweeps      int               `json:"sweeps"`
	Migrated    int               `json:"migrated_lineages"`
	ShadowBytes int64             `json:"shadow_bytes"`
}

func (r *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	lineageCount := map[string]int{}
	for _, owner := range r.assign {
		lineageCount[owner]++
	}
	openByWorker := map[string]int{}
	open := 0
	for _, j := range r.jobs {
		if !j.terminal {
			openByWorker[j.worker]++
			open++
		}
	}
	fs := FleetStatus{
		Assignments: map[string]string{},
		Jobs:        len(r.jobs),
		OpenJobs:    open,
		Sweeps:      len(r.sweeps),
		Migrated:    len(r.migrated),
		ShadowBytes: r.shadowBytes,
	}
	for k, v := range r.assign {
		fs.Assignments[k] = v
	}
	for _, wk := range r.workers {
		fs.Workers = append(fs.Workers, WorkerStatus{
			Name:         wk.name,
			URL:          wk.url,
			State:        wk.state,
			QueueDepth:   wk.health.QueueDepth,
			QueueCap:     wk.health.QueueCap,
			RunningJobs:  wk.health.RunningJobs,
			Workers:      wk.health.Workers,
			SaturationPc: wk.health.SaturationPc,
			LastSeenMs:   time.Since(wk.lastSeen).Milliseconds(),
			Fails:        wk.fails,
			Lineages:     lineageCount[wk.name],
			OpenJobs:     openByWorker[wk.name],
		})
	}
	r.mu.Unlock()
	sort.Slice(fs.Workers, func(a, b int) bool { return fs.Workers[a].Name < fs.Workers[b].Name })
	writeJSON(w, http.StatusOK, fs)
}
