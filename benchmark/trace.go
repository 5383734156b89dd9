package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Name is "layer.operation";
// ID is shared by every span of one operation (workload/round/config/program
// for an engine run, the job ID for a served job); Parent indexes the span
// that caused this one, -1 for a root.
type span struct {
	Name   string
	ID     string
	Parent int
	Lane   int           // viewer lane: 0 for the main goroutine, n for client n
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Counts map[string]float64 // counter deltas observed across the call
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer). A child
// span takes its parent's lane; lane applies to roots only.
func (t *tracer) begin(name, id string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		lane = t.spans[parent].Lane
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Lane: lane, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i, attaching counts (may be nil).
func (t *tracer) end(i int, counts map[string]float64) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.spans[i].Counts = counts
}

// add records a span whose interval was observed elsewhere (the serve.queue /
// serve.run / serve.notify children synthesized from JobStatus timestamps).
func (t *tracer) add(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	if parent >= 0 {
		lane = t.spans[parent].Lane
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Lane: lane, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by its direct children. Children may nest further and may
// overlap one another; overlapping cover is counted once, and cover outside
// the parent's interval is ignored.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.dur() - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome trace, one viewer row (tid) per
// lane so the two clients' concurrent jobs do not overlap; args carry the
// shared ID, the span and parent indexes and the counts.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "span": i, "parent": s.Parent}
		for k, v := range s.Counts {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerOf is the layer (module) part of a "layer.operation" span name.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
