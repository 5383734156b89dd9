package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sp(name string, parent int, start, end int) span {
	return span{Name: name, Parent: parent, Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		sp("job", -1, 0, 100),  // 0
		sp("wait", 0, 10, 90),  // 1: child of job
		sp("run", 1, 20, 60),   // 2: grandchild, must not count against job
		sp("submit", 0, 0, 10), // 3: child of job
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"job": 10 * time.Millisecond, "wait": 40 * time.Millisecond, "run": 40 * time.Millisecond, "submit": 10 * time.Millisecond}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		sp("parent", -1, 0, 100),
		sp("a", 0, 10, 50),
		sp("b", 0, 30, 70),   // overlaps a: cover 10..70 counts once
		sp("c", 0, 90, 120),  // runs past the parent: only 90..100 counts
		sp("d", 0, 40, 45),   // inside a and b: adds nothing
		sp("e", 0, -20, -10), // before the parent: adds nothing
	}
	if got, want := selfTimes(spans)["parent"], 30*time.Millisecond; got != want {
		t.Errorf("self[parent] = %v, want %v", got, want)
	}
}

func TestSelfTimeSumsSpansOfOneName(t *testing.T) {
	spans := []span{sp("x", -1, 0, 10), sp("x", -1, 20, 50)}
	if got := selfTimes(spans)["x"]; got != 40*time.Millisecond {
		t.Errorf("self[x] = %v, want 40ms", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", "id", -1, 0)
	tr.end(i, nil)
	tr.add("y", "id", i, time.Now(), time.Now())
	if i != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something")
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := newTracer()
	root := tr.begin("client.job", "serve/job1", -1, 2)
	child := tr.begin("serve.submit", "serve/job1", root, 0)
	tr.end(child, map[string]float64{"bytes": 12})
	tr.end(root, nil)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "serve.submit" || ev.Cat != "serve" || ev.Ph != "X" || ev.TID != 2 {
		t.Errorf("child event = %+v; want serve.submit in category serve on its parent's lane", ev)
	}
	if ev.Args["id"] != "serve/job1" || ev.Args["parent"] != float64(root) || ev.Args["bytes"] != float64(12) {
		t.Errorf("child args = %v", ev.Args)
	}
}
